"""qident: exact verification of q-series identities.

Truncated Puiseux series with cyclotomic-field coefficients, classical
theta and Appell-Lerch building blocks, Eulerian (q-hypergeometric) sums,
and a small expression language for stating and checking identities
coefficient by coefficient.
"""

from .coeff import (
    CycloNumber,
    cyclo_embed,
    csc_pi,
    lift_order,
    sin_pi,
    zeta_power,
)
from .dsl import eval_expr, fold_monomial, parse, parse_binding, print_expr
from .errors import (
    CapExceededError,
    EvalError,
    InsufficientPrecisionError,
    NonGenericError,
    OrderMismatchError,
    ParseError,
    QIdentError,
)
from .eulerian import f_c
from .series import (
    Monomial,
    QSeries,
    bilateral_sum,
    from_monomial,
    geom_inverse,
    series_add,
    series_div,
    series_eq_to_order,
    series_invert,
    series_mul,
    series_neg,
    series_pow,
    series_scale,
    series_shift,
    series_sub,
    series_truncate,
)
from .special import J, JB, Jm, appell_m, g_universal, pochhammer, theta_j
from .verdict import Verdict

__version__ = "0.1.0"


# identity's names are loaded on first use, so that importing the command
# line front end for an expansion does not load the checking engine
def __getattr__(name: str):
    if name in __all__:
        from . import identity

        return getattr(identity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CycloNumber",
    "cyclo_embed",
    "csc_pi",
    "lift_order",
    "sin_pi",
    "zeta_power",
    "QIdentError",
    "OrderMismatchError",
    "NonGenericError",
    "InsufficientPrecisionError",
    "CapExceededError",
    "ParseError",
    "EvalError",
    "Monomial",
    "QSeries",
    "bilateral_sum",
    "from_monomial",
    "geom_inverse",
    "series_add",
    "series_div",
    "series_eq_to_order",
    "series_invert",
    "series_mul",
    "series_neg",
    "series_pow",
    "series_scale",
    "series_shift",
    "series_sub",
    "series_truncate",
    "J",
    "JB",
    "Jm",
    "appell_m",
    "g_universal",
    "pochhammer",
    "theta_j",
    "f_c",
    "parse",
    "print_expr",
    "eval_expr",
    "fold_monomial",
    "parse_binding",
    "IdentityCase",
    "SuiteReport",
    "builtin_cases",
    "builtin_corpus_text",
    "check",
    "make_case",
    "parse_corpus",
    "run_suite",
    "serialize_corpus",
    "Verdict",
]
