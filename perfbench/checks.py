"""Checks of the program's outputs: verdicts against the corpus's own
expectations, printed expansions against the independent reference.

Each check returns a list of problems; an operation with any problem
counts as failed. Nothing here imports qident: the program is read only
through its printed output and the corpus text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from reference import Cyc, Ser

_HEADER = re.compile(
    r"^# terms below q\^\((-?\d+(?:/\d+)?)\), grid 1/(\d+), coefficients in (Q|Q\(zeta_(\d+)\))$"
)
_LINE = re.compile(r"^q\^\((-?\d+)/(\d+)\): (.+)$")
_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?z(\d+)(?:\^(\d+))?$|^(\d+(?:/\d+)?)$")


def parse_coefficient(text: str, M: int) -> Cyc:
    """Read a coefficient as the program prints it, such as
    '-2*z12^3 + z12 - 1/2', into Q(zeta_M)."""
    v = [Fraction(0)] * max(1, M)
    for sign, body in re.findall(r"(^-|^|\s[+-]\s)([^\s]+)", text.strip()):
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"unreadable coefficient {text!r}")
        if m.group(4) is not None:
            value, power = Fraction(m.group(4)), 0
        else:
            if int(m.group(2)) != M:
                raise ValueError(f"coefficient {text!r} is not in Q(zeta_{M})")
            value = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            power = int(m.group(3)) if m.group(3) else 1
        v[power] += -value if sign.strip() == "-" else value
    return Cyc(M, v)


def parse_expansion(text: str) -> Tuple[Fraction, int, Dict[Fraction, Cyc]]:
    """(exponent bound reached, field order, terms) of `qident expand` output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty expansion")
    head = _HEADER.match(lines[0])
    if not head:
        raise ValueError(f"unreadable header {lines[0]!r}")
    reached = Fraction(head.group(1))
    M = int(head.group(4)) if head.group(4) else 1
    terms: Dict[Fraction, Cyc] = {}
    for ln in lines[1:]:
        m = _LINE.match(ln)
        if not m:
            raise ValueError(f"unreadable term line {ln!r}")
        e = Fraction(int(m.group(1)), int(m.group(2)))
        if e in terms:
            raise ValueError(f"exponent {e} printed twice")
        terms[e] = parse_coefficient(m.group(3), M)
    return reached, M, terms


def check_expansion(text: str, order: Fraction, ref: Ser) -> List[str]:
    """The printed expansion must reach the requested order, print nothing
    it has not computed, and agree with the reference below the order."""
    order = Fraction(order)
    try:
        reached, _, terms = parse_expansion(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if reached < order:
        problems.append(f"stops short: terms below q^({reached}) for order {order}")
    beyond = [e for e in terms if e >= min(reached, order)]
    if beyond:
        problems.append(f"prints q^({min(beyond)}) at or beyond its bound")
    if ref.exact_below() < order:
        problems.append(f"reference only reaches q^({ref.exact_below()})")
    bound = min(reached, order)
    want = {e: c for e, c in ref.terms().items() if e < bound}
    for e in sorted(set(want) | {e for e in terms if e < bound}):
        got, exp = terms.get(e), want.get(e)
        if not (got or exp):
            continue
        if got is None or exp is None or not got == exp:
            problems.append(f"coefficient of q^({e}): printed {got}, reference {exp}")
            break
    return problems


def check_verdict(status: str, expect: str) -> Optional[str]:
    if status != expect:
        return f"verdict {status!r}, corpus expects {expect!r}"
    return None


def corpus_stanzas(text: str) -> List[Tuple[str, str, int, str]]:
    """(id, expect, number of bindings, order) of every stanza, read from the
    corpus text with no help from the program's parser."""
    out = []
    for block in re.split(r"\n\s*\n", text):
        fields: Dict[str, List[str]] = {}
        for ln in block.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, value = ln.partition(":")
            fields.setdefault(key.strip(), []).append(value.strip())
        if "id" in fields:
            out.append((
                fields["id"][0],
                fields.get("expect", ["pass"])[0],
                max(1, len(fields.get("bind", []))),
                fields.get("order", ["50"])[0],
            ))
    return out
