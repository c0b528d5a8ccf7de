"""Outcome of an identity check."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .coeff import MAX_COEFF_BITS, CycloNumber
from .record import Record

PASS = "pass"
FAIL = "fail"
NONGENERIC = "nongeneric"
INSUFFICIENT = "insufficient_precision"

_STATUSES = frozenset({PASS, FAIL, NONGENERIC, INSUFFICIENT})


class Verdict(Record):
    """Result of comparing two series, or of a failed attempt to build them.

    A fail verdict always carries the smallest offending exponent and the
    two disagreeing coefficients.
    """

    __slots__, _fields = (), ("status", "order_checked", "first_bad_exponent", "lhs_coeff",
                              "rhs_coeff", "note")

    def __init__(self, status: str, order_checked: Fraction,
                 first_bad_exponent: Optional[Fraction] = None,
                 lhs_coeff: Optional[CycloNumber] = None, rhs_coeff: Optional[CycloNumber] = None,
                 note: str = ""):
        if status not in _STATUSES:
            raise ValueError(f"unknown verdict status {status!r}")
        if status == FAIL and (first_bad_exponent is None or lhs_coeff is None or rhs_coeff is None):
            raise ValueError("fail verdict requires exponent and both coefficients")
        super().__init__(status, order_checked, first_bad_exponent, lhs_coeff, rhs_coeff, note)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def detail(self) -> str:
        """Human-readable one-line summary for report output."""
        if self.status == PASS:
            return f"agrees below q^({self.order_checked})"
        if self.status == FAIL:
            e = self.first_bad_exponent
            return (
                f"first mismatch at q^({e.numerator}/{e.denominator}):"
                f" lhs={_witness(self.lhs_coeff)} rhs={_witness(self.rhs_coeff)}"
            )
        return self.note or self.status


def _witness(c: CycloNumber) -> str:
    """c as text, or its size when an integer of it has more than
    MAX_COEFF_BITS bits, which CPython may refuse to convert."""
    bits = max(x.bit_length() for x in (c.den, *c.num))
    return str(c) if bits <= MAX_COEFF_BITS else f"<{bits} bits, past MAX_COEFF_BITS = {MAX_COEFF_BITS}>"
