"""Identity corpus: stanza file format, checking engine, suite reports.

A corpus file is a sequence of blank-line-separated stanzas:

    id: m-shift-z
    lhs: m(x, q, z)
    rhs: m(x, q, q*z)
    bind: x=2*q, z=-q^(1/2)
    bind: x=zeta(5,2)*q, z=q^(3/2)
    order: 40
    expect: pass
    note: poles only at x*z in q^Z

Lines starting with # are comments. bind: repeats, one sample per line;
a case with no bind lines runs once with the empty binding. order: and
note: are optional; expect: defaults to pass and may be fail or
nongeneric for engineered cases (the canary, forced singularities).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .dsl import DEFAULT_ORDER, Expr, eval_expr, parse, parse_bindings, print_expr
from .errors import CapExceededError, NonGenericError
from .record import Record
from .series import Monomial, _as_frac, series_eq_to_order
from .verdict import INSUFFICIENT, NONGENERIC, Verdict

Rat = Union[int, Fraction]

EXPECTATIONS = ("pass", "fail", "nongeneric")


# ---------------------------------------------------------------------------
# Case type
# ---------------------------------------------------------------------------


class IdentityCase(Record):
    __slots__, _fields = (), ("id", "lhs", "rhs", "sample_bindings", "binding_sources",
                              "default_order", "genericity_note", "expect")

    def __init__(self, id: str, lhs: Expr, rhs: Expr,
                 sample_bindings: Tuple[Dict[str, Monomial], ...] = ({},),
                 binding_sources: Tuple[str, ...] = ("",), default_order: Fraction = DEFAULT_ORDER,
                 genericity_note: str = "", expect: str = "pass"):
        if not sample_bindings:
            sample_bindings, binding_sources = ({},), ("",)
        if len(binding_sources) != len(sample_bindings):
            raise ValueError(f"case {id}: binding sources out of step")
        if default_order <= 0:
            raise ValueError(f"case {id}: default_order must be positive")
        if expect not in EXPECTATIONS:
            raise ValueError(f"case {id}: unknown expectation {expect!r}")
        super().__init__(id, lhs, rhs, sample_bindings, binding_sources, default_order,
                         genericity_note, expect)


def _split_top(text: str, sep: str) -> List[str]:
    """Split on sep at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def make_case(
    cid: str,
    lhs: str,
    rhs: str,
    binds: Sequence[str] = (),
    order: Rat = DEFAULT_ORDER,
    expect: str = "pass",
    note: str = "",
) -> IdentityCase:
    """Build a case from source strings."""
    sources = tuple(b.strip() for b in binds)
    return IdentityCase(
        id=cid,
        lhs=parse(lhs),
        rhs=parse(rhs),
        sample_bindings=tuple(parse_bindings(_split_top(b, ",")) for b in sources) or ({},),
        binding_sources=sources or ("",),
        default_order=Fraction(order),
        genericity_note=note,
        expect=expect,
    )


# ---------------------------------------------------------------------------
# Corpus file parsing / serialization
# ---------------------------------------------------------------------------

_KEYS = ("id", "lhs", "rhs", "bind", "order", "expect", "note")


def parse_corpus(text: str) -> List[IdentityCase]:
    cases: List[IdentityCase] = []
    stanza: Dict[str, object] = {}
    binds: List[str] = []

    def flush(lineno: int):
        if not stanza and not binds:
            return
        for req in ("id", "lhs", "rhs"):
            if req not in stanza:
                raise ValueError(f"stanza ending at line {lineno} lacks {req}:")
        cases.append(
            make_case(
                str(stanza["id"]),
                str(stanza["lhs"]),
                str(stanza["rhs"]),
                binds=tuple(binds),
                order=stanza.get("order", DEFAULT_ORDER),
                expect=str(stanza.get("expect", "pass")),
                note=str(stanza.get("note", "")),
            )
        )
        stanza.clear()
        binds.clear()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            flush(lineno)
            continue
        key, colon, value = line.partition(":")
        key = key.strip()
        if not colon or key not in _KEYS:
            raise ValueError(f"line {lineno}: expected 'key: value' with key in {_KEYS}")
        value = value.strip()
        if key == "bind":
            binds.append(value)
        elif key in stanza:
            raise ValueError(f"line {lineno}: duplicate {key}:")
        elif key == "order":
            num, slash, den = value.partition("/")
            try:
                stanza["order"] = Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad order {value!r}") from exc
        else:
            stanza[key] = value
    flush(len(text.splitlines()))
    seen = set()
    for c in cases:
        if c.id in seen:
            raise ValueError(f"duplicate case id {c.id!r}")
        seen.add(c.id)
    return cases


def serialize_case(case: IdentityCase) -> str:
    lines = [f"id: {case.id}", f"lhs: {print_expr(case.lhs)}", f"rhs: {print_expr(case.rhs)}"]
    for src in case.binding_sources:
        if src:
            lines.append(f"bind: {src}")
    if case.default_order != DEFAULT_ORDER:
        o = case.default_order
        lines.append(f"order: {o.numerator}" + (f"/{o.denominator}" if o.denominator != 1 else ""))
    if case.expect != "pass":
        lines.append(f"expect: {case.expect}")
    if case.genericity_note:
        lines.append(f"note: {case.genericity_note}")
    return "\n".join(lines)


def serialize_corpus(cases: Sequence[IdentityCase]) -> str:
    return "\n\n".join(serialize_case(c) for c in cases) + "\n"


def builtin_corpus_text() -> str:
    with open(os.path.join(os.path.dirname(__file__), "corpus", "builtin.id"), encoding="utf-8") as fh:
        return fh.read()


def builtin_cases() -> List[IdentityCase]:
    return parse_corpus(builtin_corpus_text())


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check(
    case: IdentityCase, binding_index: int = 0, order_override: Optional[Rat] = None
) -> Verdict:
    """Evaluate both sides under one sample binding and compare.

    Singularities become nongeneric verdicts and a precision the
    evaluation cannot reach an insufficient_precision verdict. Anything
    else (unbound symbols, malformed arguments) propagates as an error.
    """
    binding = case.sample_bindings[binding_index]
    order = _as_frac(order_override if order_override is not None else case.default_order)
    try:
        lhs = eval_expr(case.lhs, order, binding)
        rhs = eval_expr(case.rhs, order, binding)
    except NonGenericError as exc:
        return Verdict(NONGENERIC, order, note=f"nongeneric: {exc.factor}")
    except CapExceededError as exc:
        return Verdict(INSUFFICIENT, order, note=f"precision short of q^({order}): {exc}")
    return series_eq_to_order(lhs, rhs, order)


# ---------------------------------------------------------------------------
# Suite running and reports
# ---------------------------------------------------------------------------


class CheckRecord(Record):
    __slots__, _fields = (), ("case_id", "binding", "status", "detail", "expect", "seconds")

    @property
    def expected(self) -> bool:
        return self.status == self.expect


class SuiteReport(Record):
    __slots__, _fields = (), ("records",)

    def counts(self) -> Dict[str, int]:
        out = {"total": len(self.records), "pass": 0, "fail": 0, "nongeneric": 0, "insufficient_precision": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def unexpected(self) -> List[CheckRecord]:
        return [r for r in self.records if not r.expected]

    def ok(self) -> bool:
        return not self.unexpected()

    def render(self) -> str:
        lines = []
        for r in self.records:
            note = "" if r.expect == "pass" or r.status != r.expect else " (expected)"
            lines.append(f"{r.case_id}\t{r.binding or '-'}\t{r.status}\t{r.detail}{note} [{r.seconds:.2f}s]")
        c = self.counts()
        summary = f"total {c['total']} / pass {c['pass']} / fail {c['fail']} / nongeneric {c['nongeneric']}"
        if c["insufficient_precision"]:
            summary += f" / insufficient_precision {c['insufficient_precision']}"
        lines.append(summary)
        return "\n".join(lines)


def _record(case: IdentityCase, bidx: int, order: Optional[Rat]) -> CheckRecord:
    t0 = time.perf_counter()
    v = check(case, bidx, order)
    return CheckRecord(
        case_id=case.id,
        binding=case.binding_sources[bidx],
        status=v.status,
        detail=v.detail(),
        expect=case.expect,
        seconds=time.perf_counter() - t0,
    )


def run_suite(
    order: Optional[Rat] = None,
    jobs: int = 1,
    cases: Optional[Sequence[IdentityCase]] = None,
) -> SuiteReport:
    """Run every binding of every case; order, when given, overrides each
    case's own default."""
    if cases is None:
        cases = builtin_cases()
    work = [(c, i) for c in cases for i in range(len(c.sample_bindings))]
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_record, *zip(*work), [order] * len(work)))
    else:
        records = [_record(c, i, order) for c, i in work]
    return SuiteReport(records)
