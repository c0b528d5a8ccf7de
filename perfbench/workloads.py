"""The benchmark's workloads: which operations each runs, and the
independent reference that each checked output is compared with.

An operation is one (case, binding) check of the built-in corpus or one
`qident expand` call. Reference builders take the exponent bound N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

import reference as R

RefBuilder = Callable[[Fraction], R.Ser]


def _one(M: int = 1) -> R.Cyc:
    return R.Cyc.rat(1, M)


def _rat(r) -> R.Cyc:
    return R.Cyc.rat(r)


@dataclass(frozen=True)
class Side:
    """One side of a corpus stanza, expanded by the program after the
    timed checks and compared with the reference, so that a fault shared by
    both sides of an identity cannot pass."""

    stanza: str
    binding: int
    source: str
    binds: Tuple[str, ...]
    ref: RefBuilder


@dataclass(frozen=True)
class Expansion:
    source: str
    order: int
    ref: RefBuilder
    why: str


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "suite" or "expand"
    stanzas: Optional[Tuple[str, ...]] = None  # None: the whole corpus
    order: Optional[int] = None  # None: each stanza's own order
    sides: Tuple[Side, ...] = ()
    expansions: Tuple[Expansion, ...] = ()
    known_faults: frozenset = field(default_factory=frozenset)


# Sides whose coefficients are rational, taken from the stanzas each suite
# workload runs; the order is the one the workload checks them at.
_STATED_SIDES = (
    Side("triple-product", 0, "j(x; q)", ("x=2*q",), lambda N: R.theta(_rat(2), 1, 1, N)),
    Side("theta-eval-1b", 0, "JB(0,1)", (), lambda N: R.theta(_rat(-1), 0, 1, N)),
    Side("theta-eval-3", 0, "J(1,2)", (), lambda N: R.theta(_one(), 1, 2, N)),
    Side("sixth-order-sum", 0, "poch(-q, q^2, inf)^2*poch(q^6, q^6, inf)*poch(-q^3, q^6, inf)^2", (),
         lambda N: R.mul(R.mul(R.mul(R.pochhammer(_rat(-1), 1, 2, None, N),
                                     R.pochhammer(_rat(-1), 1, 2, None, N)),
                               R.pochhammer(_one(), 6, 6, None, N)),
                         R.mul(R.pochhammer(_rat(-1), 3, 6, None, N),
                               R.pochhammer(_rat(-1), 3, 6, None, N)))),
    Side("phi-as-appell", 0, "phi()", (), R.phi6),
    Side("sigma-as-appell", 0, "sigma()", (), R.sigma6),
    Side("third-order-f", 0, "f3()", (), R.f3),
    Side("fifth-order-conjecture", 0, "f0()", (), R.f0),
    Side("m-shift-z", 0, "m(x, q, z)", ("x=2*q", "z=-q^(1/2)"),
         lambda N: R.appell_m(_rat(2), 1, 1, _rat(-1), Fraction(1, 2), N)),
    Side("g-displays-agree", 2, "g(x)", ("x=2*q",), lambda N: R.g(_rat(2), 1, N)),
    Side("htilde-new-1-2", 0, "Htilde(1, 2)", (), lambda N: R.h_tilde(1, 2, N)),
)

_DEEP_SIDES = (
    Side("phi-as-appell", 0, "phi()", (), R.phi6),
    Side("third-order-f", 0, "f3()", (), R.f3),
    Side("theta-eval-2", 0, "JB(1,2)", (), lambda N: R.theta(_rat(-1), 1, 2, N)),
    Side("kprime-form", 0, "Kp(w)", ("w=-1",), lambda N: R.kprime(_rat(-1), N)),
    Side("m-shift-x", 0, "m(q*x, q, z)", ("x=2*q", "z=-1"),
         lambda N: R.appell_m(_rat(2), 2, 1, _rat(-1), 0, N)),
)

# suite-deep: field orders M of 1, 3, 4, 5, 7 (and 8 from K-tilde), grid
# denominators from 1 to 16, sparse theta quotients and dense Eulerian sums.
_DEEP_STANZAS = (
    "habc-lambert-3-2-7",  # the only M = 7 stanza; grid 7, bilateral Lambert sum
    "htilde-new-1-4",  # Eulerian H' sums on grid 16, the slowest kind of check
    "htilde-even-1-4",  # the bilateral route to the same series, grid 16
    "ktilde-new-1-2",  # K-tilde against its closed form, M = 8, grid 8
    "kprime-form",  # dense K' sums against m and a theta quotient, M = 1, 3, 4, 5
    "m-shift-x",  # Appell-Lerch sums, M = 3, 4, grids 2 and 3
    "m-split-2",  # the 2-way splitting of m: many theta quotients, M = 3, 4, 5
    "theta-square",  # sparse theta quotients from here on
    "theta-two-product",
    "theta-dissect",  # M = 5, grid 3
    "reciprocal-theta-sum",
    "theta-refine",
    "theta-shift-up2",
    "theta-shift-down2",
    "theta-invert",
    "theta-eval-2",
    "theta-eval-4",
    "sixth-order-sum",  # dense rational Eulerian sums against theta products
    "third-order-f",
    "phi-as-appell",
)

# expand-cold: one expression per builder family, each in a fresh interpreter.
_EXPANSIONS = (
    Expansion("j(-q^(1/2); q)", 200, lambda N: R.theta(_rat(-1), Fraction(1, 2), 1, N),
              "theta: a sparse bilateral sum at the deepest order"),
    Expansion("1/Jm(1)", 200, R.inverse_partitions,
              "theta inverse: series_invert at order 200, checked against the partition numbers"),
    Expansion("q^(-3)/Jm(1)", 40, lambda N: R.shift(R.inverse_partitions(N + 3), _one(), -3),
              "theta inverse behind a negative shift; counted failed until the expand padding loop "
              "notices the precision the shift costs"),
    Expansion("poch(-q^(1/2), q, inf)", 100,
              lambda N: R.pochhammer(_rat(-1), Fraction(1, 2), 1, None, N),
              "Pochhammer: a long product of binomials on grid 2"),
    Expansion("m(2*q, q, -q^(1/2))", 60,
              lambda N: R.appell_m(_rat(2), 1, 1, _rat(-1), Fraction(1, 2), N),
              "Appell-Lerch m: bilateral Lambert sum over a theta"),
    Expansion("g(zeta(3,1))", 40, lambda N: R.g(R.zeta(3, 1, 3), 0, N),
              "universal mock theta g in Q(zeta_3)"),
    Expansion("phi()", 200, R.phi6, "phi/sigma/f3/f0: a dense Eulerian sum at order 200"),
    Expansion("Kp(zeta(5,1))", 60, lambda N: R.kprime(R.zeta(5, 1, 5), N),
              "Kp/Kpp: an Eulerian sum in Q(zeta_5)"),
    Expansion("Habc(3,2,7)", 40, lambda N: R.habc(3, 2, 7, N),
              "Habc: bilateral Lambert sum in Q(zeta_7) on grid 7"),
    Expansion("Ktilde(1,3)", 40, lambda N: R.k_tilde(1, 3, N),
              "Ktilde: the root-of-unity combination in Q(zeta_12) on grid 8"),
    Expansion("Htilde(1,4)", 40, lambda N: R.h_tilde(1, 4, N),
              "Htilde: two H' sums on grid 16"),
    Expansion("msplit(2*q, q, -1, -q, 3)", 40,
              lambda N: R.appell_m(_rat(2), 1, 1, _rat(-1), 0, N),
              "msplit: the 3-way splitting, checked against m(2q, q, -1) which it equals"),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("suite-stated", "suite", sides=_STATED_SIDES),
        Workload("suite-deep", "suite", stanzas=_DEEP_STANZAS, order=100, sides=_DEEP_SIDES),
        Workload("expand-cold", "expand", expansions=_EXPANSIONS,
                 known_faults=frozenset({"q^(-3)/Jm(1)"})),
    )
}
