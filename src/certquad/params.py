"""Rule parameters, the three coefficient regimes, and conjugate exponents.

A rule is picked by a pair (alpha, lambda) in the unit square.  Three
breakpoints derived from the pair,

    x = alpha*lambda,   y = 1 - alpha,   z = 1 - lambda*(1 - alpha),

always satisfy x <= z (because z - x = 1 - lambda >= 0), so the
possible orderings are exactly three.  Which ordering holds decides which
closed-form coefficient family applies in the bound engines.  Since x <= z,
two sign tests settle it, one per kink against the split point y: x > y
and z < y.  ``RuleParams.breakpoints`` is the one source of (x, y, z),
``classify_regime`` returns the ordering as a plain tag string, and
``conjugate`` returns the Hoelder conjugate p of q as a plain number.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .record import Record

CASE1 = "Case1"  # x <= y <= z
CASE2 = "Case2"  # x <= z <= y
CASE3 = "Case3"  # y <= x <= z


def _normalize(v):
    """Keep ints exact by promoting them to Fraction; pass the rest through."""
    if isinstance(v, bool):
        raise DomainError("parameter must be a number, not a bool")
    if isinstance(v, int):
        return Fraction(v)
    return v


class RuleParams(Record):
    """The pair (alpha, lambda), each in [0, 1].

    ``alpha`` places the interior node at alpha*a + (1-alpha)*b and splits
    the endpoint weights; ``lam`` blends the endpoint combination against
    the interior node.  Fraction inputs keep all downstream coefficient
    arithmetic exact; floats select the floating kernels.
    """

    __slots__ = ("alpha", "lam")

    def __post_init__(self):
        object.__setattr__(self, "alpha", _normalize(self.alpha))
        object.__setattr__(self, "lam", _normalize(self.lam))
        for label, v in (("alpha", self.alpha), ("lambda", self.lam)):
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"{label} must be finite, got {v!r}")
            if not (0 <= v <= 1):
                raise DomainError(f"{label} must lie in [0, 1], got {v!r}")

    def breakpoints(self):
        """(alpha*lambda, 1-alpha, 1-lambda*(1-alpha)) in the input arithmetic."""
        a, l = self.alpha, self.lam
        return (a * l, 1 - a, 1 - l * (1 - a))


def classify_regime(params: RuleParams) -> str:
    """The tag of the unique regime for a parameter pair.

    Case3 when x > y (alpha*lambda > 1-alpha); otherwise Case1 when
    lambda*y <= alpha (z >= y) and Case2 when not.  These are the two
    kink-versus-split tests, computed with the same float operations as
    the activity tests of ``holder_coeffs``, so every input, float
    rounding corners included, gets a tag whose eps entries are active;
    there is no fallback branch.  Ties pick the lowest-numbered case; the
    coefficient families coincide on the boundaries, so the choice does
    not change any bound.  Comparisons are exact for rational inputs and
    zero-tolerance for floats.
    """
    x, y, _ = params.breakpoints()
    if x > y:
        return CASE3
    if params.lam * y <= params.alpha:
        return CASE1
    return CASE2


def conjugate(q):
    """Hoelder conjugate p = q/(q-1) of q >= 1, and math.inf at q = 1.

    The power-mean engine handles q = 1 through the x**0 = 1 convention,
    the Hoelder engines reject it.  q < 1 and a non-finite q are domain
    errors.
    """
    q = _normalize(q)
    if isinstance(q, float) and not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q!r}")
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q!r}")
    return math.inf if q == 1 else q / (q - 1)
