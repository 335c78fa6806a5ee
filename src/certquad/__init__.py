"""certquad: certified error bounds for a two-parameter quadrature family.

The rule Q(alpha, lambda) blends the endpoint pair with one interior node
and approximates the integral mean of f over [a, b]; midpoint, trapezoid
and Simpson are the (1/2, 0), (1/2, 1) and (1/2, 1/3) members.  For
functions whose |f'|**q is convex the package computes closed-form upper
bounds on the approximation error, composes them over panels, and checks
the induced inequalities between classical special means.
"""

from .bounds import (ErrorCertificate, best_bound, holder_endpoint_bound,
                     holder_interior_bound, power_mean_bound)
from .coefficients import holder_coeffs, power_mean_coeffs
from .composite import CompositeResult, adaptive_integrate, composite_integrate
from .errors import DomainError, OracleError, ParseError, Refusal
from .expression import (Expr, FunctionModel, builtin_corpus, differentiate,
                         evaluate, from_expression, parse, power_model,
                         probe_convexity, resolve_function, to_string)
from .means import eval_mean, proposition_check
from .oracle import OracleResult, integrate_ref, mean_ref
from .params import RuleParams, classify_regime, conjugate
from .rules import Interval, identity_rhs, named_rule, rule_value

__version__ = "0.1.0"

__all__ = [
    "CompositeResult", "DomainError", "ErrorCertificate", "Expr",
    "FunctionModel", "Interval", "OracleError", "OracleResult",
    "ParseError", "Refusal", "RuleParams", "adaptive_integrate",
    "best_bound", "builtin_corpus", "classify_regime", "composite_integrate",
    "conjugate", "differentiate", "eval_mean", "evaluate", "from_expression",
    "holder_coeffs", "holder_endpoint_bound",
    "holder_interior_bound", "identity_rhs", "integrate_ref", "mean_ref",
    "named_rule", "parse", "power_mean_bound", "power_mean_coeffs",
    "power_model", "probe_convexity", "proposition_check",
    "resolve_function", "rule_value", "to_string",
]
