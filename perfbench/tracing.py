"""Per-layer tracing, installed from outside the program.

The modules import each other's functions by name, so each wrapper is
installed on every qident module's own binding of the function. A span
records its name, start, end, parent span, operation id and whether it
raised. Coefficient arithmetic runs millions of times per workload, so the
coeff layer keeps counters instead of spans; its time is still charged to
the enclosing span as child time, which is what makes a span's self time
mean "time outside any traced layer below it".

Spans stay in memory and are written out as JSON lines when the process
ends. `layer_metrics` turns the lines of one or more processes into the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left
from math import gcd
from time import perf_counter
from typing import Dict, Iterable, List

# (module, function, span name)
TARGETS = (
    ("series", "series_mul", "series.mul"),
    ("series", "series_invert", "series.invert"),
    ("series", "series_add", "series.add"),
    ("series", "geom_inverse", "series.geom_inverse"),
    ("series", "bilateral_sum", "series.bilateral_sum"),
    ("series", "series_eq_to_order", "series.eq_to_order"),
    ("special", "theta_j", "special.theta_j"),
    ("special", "appell_m", "special.appell_m"),
    ("special", "g_universal", "special.g_universal"),
    ("special", "msplit_rhs", "special.msplit_rhs"),
    ("special", "pochhammer", "special.pochhammer"),
    ("special", "ensure_prec", "special.ensure_prec"),
    ("eulerian", "eulerian_sum", "eulerian.eulerian_sum"),
    ("eulerian", "habc_sum", "eulerian.habc_sum"),
    ("eulerian", "bilateral_even", "eulerian.bilateral_even"),
    ("eulerian", "bilateral_odd", "eulerian.bilateral_odd"),
    ("eulerian", "k_tilde", "eulerian.k_tilde"),
    ("eulerian", "h_tilde", "eulerian.h_tilde"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "eval_expr", "dsl.eval_expr"),
    ("identity", "check", "identity.check"),
    ("identity", "builtin_cases", "identity.builtin_cases"),
    ("cli", "main", "cli.main"),
)

# span record fields
NAME, START, END, PARENT, OP, ERR, COEFF_S, COUNT = range(8)


def _mul_products(rec, args, kwargs):
    """Term pairs the schoolbook product visits: those whose exponent sum
    falls below the product's precision, after both are put on one grid."""
    a, b = args[0], args[1]
    try:
        d = a.denom * b.denom // gcd(a.denom, b.denom)
        fa, fb = d // a.denom, d // b.denom
        ka = [k * fa for k in a.terms]
        kb = sorted(k * fb for k in b.terms)
        va = min(ka) if ka else a.prec * fa
        vb = kb[0] if kb else b.prec * fb
        p = min(a.prec * fa + vb, b.prec * fb + va)
        rec[COUNT] = sum(bisect_left(kb, p - k) for k in ka)
    except AttributeError:  # a series representation this count does not know
        rec[COUNT] = 0
    return args, kwargs


def _count_builds(rec, args, kwargs):
    build = args[0]

    def counted(work):
        rec[COUNT] += 1
        return build(work)

    return (counted,) + tuple(args[1:]), kwargs


_PREPARE = {"series.mul": _mul_products, "special.ensure_prec": _count_builds}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.coeff = {"mul": 0, "mul_s": 0.0, "mul_full": 0, "add": 0, "add_s": 0.0,
                      "inv": 0, "inv_s": 0.0}
        self.missing: List[str] = []

    def _span(self, name, fn):
        spans, stack, prepare = self.spans, self.stack, _PREPARE.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0.0, 0]
            if prepare:
                args, kwargs = prepare(rec, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def _coeff_op(self, kind, fn, full_check):
        spans, stack, c = self.spans, self.stack, self.coeff
        key_s = kind + "_s"

        def wrapper(a, *args):
            t0 = perf_counter()
            r = fn(a, *args)
            dt = perf_counter() - t0
            c[kind] += 1
            c[key_s] += dt
            if full_check and type(args[0]) is type(a) and not a.is_rational() \
                    and not args[0].is_rational():
                c["mul_full"] += 1
            if stack:
                spans[stack[-1]][COEFF_S] += dt
            return r

        return wrapper

    def install(self):
        import importlib

        mods = {}
        for modname, fname, name in TARGETS:
            try:
                mod = mods.setdefault(modname, importlib.import_module("qident." + modname))
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(mod, fname, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._span(name, fn)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "qident":
                    continue
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
        coeff = sys.modules.get("qident.coeff")
        cls = getattr(coeff, "CycloNumber", None)
        for attr, kind in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                           ("__radd__", "add"), ("inv", "inv")):
            fn = getattr(cls, attr, None) if cls else None
            if fn is None:
                self.missing.append("coeff." + attr)
                continue
            setattr(cls, attr, self._coeff_op(kind, fn, kind == "mul"))

    def dump(self, path: str):
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for i, r in enumerate(self.spans):
                fh.write(json.dumps({"proc": pid, "id": i, "name": r[NAME], "start": r[START],
                                     "end": r[END], "parent": r[PARENT], "op": r[OP],
                                     "err": r[ERR], "coeff_s": r[COEFF_S], "n": r[COUNT]}) + "\n")
            fh.write(json.dumps({"proc": pid, "counters": self.coeff,
                                 "missing": self.missing}) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(lines: Iterable[dict]) -> Dict[str, float]:
    """Per-layer metrics from the span and counter lines of traced processes."""
    spans: Dict[tuple, dict] = {}
    coeff = {"mul": 0, "mul_s": 0.0, "mul_full": 0, "add": 0, "inv": 0, "inv_s": 0.0}
    for ln in lines:
        if "counters" in ln:
            for k in coeff:
                coeff[k] += ln["counters"].get(k, 0)
        else:
            spans[(ln["proc"], ln["id"])] = ln
    child: Dict[tuple, float] = {}
    for (proc, _), s in spans.items():
        if s["parent"] >= 0:
            key = (proc, s["parent"])
            child[key] = child.get(key, 0.0) + s["end"] - s["start"]

    def ancestors(key):
        s = spans[key]
        while s["parent"] >= 0:
            key = (key[0], s["parent"])
            s = spans[key]
            yield key, s

    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    count: Dict[str, int] = {}
    evals_in_check = evals_in_cli = useful = 0
    for key, s in spans.items():
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        count[name] = count.get(name, 0) + s["n"]
        self_s[name] = self_s.get(name, 0.0) + dur - child.get(key, 0.0) - s["coeff_s"]
        names = [a["name"] for _, a in ancestors(key)]
        if name not in names:  # time of a nested call of the same function counts once
            total[name] = total.get(name, 0.0) + dur
        if name == "dsl.eval_expr":
            evals_in_check += "identity.check" in names
            evals_in_cli += "cli.main" in names
        if name == "series.eq_to_order" and not s["err"] and names[:1] == ["identity.check"]:
            useful += 2
    m = {
        "coeff.mul.calls": coeff["mul"],
        "coeff.mul.s": coeff["mul_s"],
        "coeff.mul_full.calls": coeff["mul_full"],
        "coeff.add.calls": coeff["add"],
        "coeff.inv.calls": coeff["inv"],
        "coeff.inv.s": coeff["inv_s"],
    }
    c, t = calls.get, total.get
    for name in ("series.mul", "series.invert", "series.add", "series.geom_inverse",
                 "series.bilateral_sum", "special.theta_j", "special.appell_m",
                 "eulerian.eulerian_sum", "dsl.parse", "dsl.eval_expr", "identity.check"):
        m[name + ".calls"] = c(name, 0)
        m[name + ".s"] = t(name, 0.0)
    for name in ("series.eq_to_order", "special.g_universal", "special.msplit_rhs",
                 "special.pochhammer", "eulerian.habc_sum", "eulerian.bilateral_even",
                 "eulerian.bilateral_odd", "eulerian.k_tilde", "eulerian.h_tilde",
                 "identity.builtin_cases", "cli.main"):
        m[name + ".s"] = t(name, 0.0)
    m["series.mul.self_s"] = self_s.get("series.mul", 0.0)
    m["series.mul.products"] = count.get("series.mul", 0)
    m["special.ensure_prec.calls"] = c("special.ensure_prec", 0)
    m["special.ensure_prec.builds"] = count.get("special.ensure_prec", 0)
    m["special.ensure_prec.useful_share"] = _ratio(c("special.ensure_prec", 0),
                                                   count.get("special.ensure_prec", 0))
    m["dsl.eval_expr.self_s"] = self_s.get("dsl.eval_expr", 0.0)
    m["identity.check.self_s"] = self_s.get("identity.check", 0.0)
    m["identity.evals_per_check"] = _ratio(evals_in_check, c("identity.check", 0))
    m["identity.useful_eval_share"] = _ratio(useful, evals_in_check)
    m["cli.expand_evals"] = _ratio(evals_in_cli, c("cli.main", 0))
    return m
