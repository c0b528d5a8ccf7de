"""Seeded micro-battery behind the kernel metrics.

Each timing is the best of REPEATS runs on inputs drawn from the seed, in
a process of its own. Every result is checked by a property its method
must have, or against the independent reference; a failed check is a
failed operation. The program's memo tables are emptied before each timed
builder call, so every repetition computes.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import reference as R
from checks import parse_coefficient

REPEATS = 3


def _best(fn, repeats=REPEATS):
    best, out = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def _clear_memo():
    import qident.special as special

    for value in vars(special).values():
        if isinstance(value, dict) and value and all(isinstance(k, tuple) for k in value):
            value.clear()


def _as_ref(c, M: int) -> R.Cyc:
    """The program's coefficient, read through its printed form."""
    return parse_coefficient(str(c), M)


def _series_coeffs(s, N):
    """{exponent: coefficient} of a program series below N."""
    D = s.denom
    return {Fraction(k, D): c for k, c in s.sorted_terms() if Fraction(k, D) < N}


def run(seed: int) -> dict:
    import qident
    from qident import CycloNumber, geom_inverse, series_invert, series_mul

    rng = random.Random(seed)
    metrics, checks, products = {}, [], {}

    def rand_cyclo(M):
        phi = len(R.cyclotomic(M)) - 1
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi)]

    def check(name, ok, detail=""):
        checks.append([name, bool(ok), detail])

    # coefficient arithmetic in Q(zeta_M)
    batch = 40
    for M in (1, 5, 12, 60):
        xs = [rand_cyclo(M) for _ in range(batch)]
        ys = [rand_cyclo(M) for _ in range(batch)]
        a = [CycloNumber(M, v) for v in xs]
        b = [CycloNumber(M, v) for v in ys]
        t, prods = _best(lambda: [x * y for x, y in zip(a, b)])
        metrics[f"coeff.mul_us.M{M}"] = t / batch * 1e6
        products[f"coeff.mul.M{M}"] = len(xs[0]) ** 2
        want = [R.Cyc(M, x) * R.Cyc(M, y) for x, y in zip(xs, ys)]
        check(f"coeff.mul.M{M}", all(_as_ref(p, M) == w for p, w in zip(prods, want)),
              "products differ from the reference field arithmetic")
        if M == 1:
            continue
        t, invs = _best(lambda: [x.inv() for x in a])
        metrics[f"coeff.inv_us.M{M}"] = t / batch * 1e6
        check(f"coeff.inv.M{M}", all(x * y == 1 for x, y in zip(a, invs)), "a * a.inv() != 1")

    ev = lambda src, N: qident.eval_expr(qident.parse(src), N)  # noqa: E731

    # series kernels on dense rational series and on a theta series
    k = rng.randint(1, 4)
    for N in (40, 100, 200):
        ca = [rng.randint(-9, 9) or 1 for _ in range(N)]
        cb = [rng.randint(-9, 9) or 1 for _ in range(N)]
        src = lambda cs: " + ".join(f"{c}*q^{i}" for i, c in enumerate(cs))  # noqa: E731
        sa, sb = ev(src(ca), N), ev(src(cb), N)
        t, prod = _best(lambda: series_mul(sa, sb))
        metrics[f"series.mul_ms.N{N}"] = t * 1e3
        products[f"series.mul.N{N}"] = N * (N + 1) // 2
        naive = [sum(ca[i] * cb[n - i] for i in range(n + 1)) for n in range(N)]
        got = _series_coeffs(prod, N)
        check(f"series.mul.N{N}", prod.prec_order() >= N and all(
            _as_ref(got[Fraction(n)], 1) == naive[n] if Fraction(n) in got else naive[n] == 0
            for n in range(N)), "series_mul differs from the naive convolution")

        theta = ev(f"j(zeta(5,{k}); q)", N)
        t, inv = _best(lambda: series_invert(theta))
        metrics[f"series.invert_ms.N{N}"] = t * 1e3
        one = series_mul(theta, inv)
        terms = _series_coeffs(one, one.prec_order())
        check(f"series.invert.N{N}", one.prec_order() >= N and all(
            _as_ref(c, one.field_order) == (1 if e == 0 else 0) for e, c in terms.items())
            and Fraction(0) in terms, "series_mul(a, series_invert(a)) != 1")

    u = qident.Monomial.make(Fraction(rng.randint(2, 9), rng.randint(2, 9)), Fraction(1, 3))
    t, geo = _best(lambda: geom_inverse(u, 200))
    metrics["series.geom_inverse_ms.N200"] = t * 1e3
    back = series_mul(geo, ev(f"1 - ({u.coeff})*q^(1/3)", 200))
    terms = _series_coeffs(back, back.prec_order())
    check("series.geom_inverse.N200", back.prec_order() >= 200 and all(
        _as_ref(c, 1) == (1 if e == 0 else 0) for e, c in terms.items()),
        "geom_inverse(u) * (1 - u) != 1")

    # builders, through the expression language, against the reference
    def builder(name, src, N, ref):
        def once():
            _clear_memo()
            return ev(src, N)

        t, s = _best(once)
        metrics[name] = t * 1e3
        got = {e: _as_ref(c, s.field_order) for e, c in _series_coeffs(s, N).items()}
        want = {e: c for e, c in ref.terms().items() if e < N}
        check(name, s.prec_order() >= N and set(got) == set(want)
              and all(got[e] == want[e] for e in got), f"{src} differs from the reference")

    h = rng.choice((1, 3))
    builder("special.theta_j_ms.N200", f"j(-q^({h}/2); q)", 200,
            R.theta(R.Cyc.rat(-1), Fraction(h, 2), 1, Fraction(200)))
    c = rng.randint(2, 5)
    builder("special.appell_m_ms.N100", f"m({c}*q, q, -q^(1/2))", 100,
            R.appell_m(R.Cyc.rat(c), 1, 1, R.Cyc.rat(-1), Fraction(1, 2), Fraction(100)))
    builder("eulerian.phi_ms.N200", "phi()", 200, R.phi6(Fraction(200)))

    return {"metrics": metrics, "checks": checks, "products": products}
