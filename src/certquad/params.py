"""Rule parameters, the three coefficient regimes, conjugate exponents, exact powers.

A rule is picked by a pair (alpha, lambda) in the unit square.  Three
breakpoints derived from the pair,

    x = alpha*lambda,   y = 1 - alpha,   z = 1 - lambda*(1 - alpha),

always satisfy x <= z (because z - x = 1 - lambda >= 0), so the
possible orderings are exactly three.  Which ordering holds decides which
closed-form coefficient family applies in the bound engines.  Since x <= z,
two sign tests settle it, one per kink against its split point.
``RuleParams`` derives the (kink, split) pairs (x, y), (1 - z, alpha) and
the tag once, as ``kink_pairs`` and ``regime``; ``classify_regime`` returns
the tag, ``conjugate`` the Hoelder conjugate p of q as a plain number, and
``_power`` holds the one bit budget for integral powers of exact bases.

``_Ratio`` is the one exact arithmetic that defers reduction: ``_lift``
turns a Fraction into it, ``_reduced`` turns a result back, with one gcd,
and both pass any other value through.  A kernel lifts its inputs where
they enter and reduces each value that leaves it, which is then the
Fraction, or the float, that step-by-step arithmetic gives.  The kernels
are the ``RuleParams`` derivation, the power-mean constants, the eps
family, the engines' step and a bisection's cut; the prologue reads an
exact q = n/d as ints, and each power of it as an int or as the float
that x ** F gives.  Floats run plain arithmetic: the derivation, the eps
and every per-point site read ``RuleParams.exact`` first.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import operator
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
    arithmetic exact; floats select the floating kernels.  Construction
    derives ``kink_pairs``, (alpha*lambda, 1-alpha) and (lambda*(1-alpha),
    alpha), each kink with its split, the ``regime`` tag of the pairs, and
    ``exact``, whether alpha or lambda is a Fraction, which the lifts and
    reductions read (see the module docstring), this derivation's included.
    """

    _fields = ("alpha", "lam")
    __slots__ = _fields + ("kink_pairs", "regime", "exact")  # derived

    def __post_init__(self):
        object.__setattr__(self, "alpha", _normalize(self.alpha))
        object.__setattr__(self, "lam", _normalize(self.lam))
        exact = type(self.alpha) is Fraction or type(self.lam) is Fraction
        a, l = (_lift(self.alpha), _lift(self.lam)) if exact else (self.alpha, self.lam)
        for label, v, lifted in (("alpha", self.alpha, a), ("lambda", self.lam, l)):
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"{label} must be finite, got {v!r}")
            if not (lifted >= 0 and 1 - lifted >= 0):
                raise DomainError(f"{label} must lie in [0, 1], got {v!r}")
        u = 1 - a  # x > u and w <= a read as u >= x and a >= w: u, a are lifted if x, w are
        x, w = a * l, l * u
        RuleParams.regime.__set__(self, CASE3 if not u >= x else CASE1 if a >= w else CASE2)
        x, u, w = map(_reduced, (x, u, w)) if exact else (x, u, w)
        RuleParams.kink_pairs.__set__(self, ((x, u), (w, self.alpha)))
        RuleParams.exact.__set__(self, exact)

    def breakpoints(self):
        """(alpha*lambda, 1-alpha, 1-lambda*(1-alpha)) in the input arithmetic,
        read off ``kink_pairs``."""
        (x, y), (w, _) = self.kink_pairs
        return (x, y, 1 - w)


def classify_regime(params: RuleParams) -> str:
    """The tag of the unique regime for a parameter pair.

    Case3 when the first of ``params.kink_pairs`` passes its split (x > y);
    otherwise Case1 when the second does not (z >= y) and Case2 when it
    does.  ``holder_coeffs`` reads the same pairs, so every input, float
    rounding corners included, gets a tag whose eps entries are active;
    there is no fallback branch.  Ties pick the lowest-numbered case; the
    coefficient families coincide on the boundaries, so the choice does
    not change any bound.  Comparisons are exact for rational inputs and
    zero-tolerance for floats.  ``RuleParams`` decides it once, when built.
    """
    return params.regime


def finite_q(q):
    """q normalised; a non-finite q is a domain error."""
    if isinstance(q, float) and not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q!r}")
    return _normalize(q)


def conjugate(q):
    """Hoelder conjugate p = q/(q-1) of q >= 1, and math.inf at q = 1.

    The power-mean engine handles q = 1 through the x**0 = 1 convention,
    the Hoelder engines reject it.  q < 1 and a non-finite q are domain
    errors.
    """
    q = finite_q(q)
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q!r}")
    return math.inf if q == 1 else q / (q - 1)


POWER_BITS = 1 << 20  # an exact power estimated past this many bits is refused


def _power(b, k):
    """b ** k; for an exact b and an integral k, an OverflowError when |k|
    times the bit lengths of b's numerator and denominator exceeds
    POWER_BITS.  The budget is an ArithmeticError like a float overflow, so
    ``best_bound`` drops such a candidate; a zero base with a negative k
    stays a DomainError."""
    if k < 0 and b == 0:
        raise DomainError("zero base with negative exponent")
    if not isinstance(b, float) and _power_bits(b, k) > POWER_BITS:
        raise OverflowError(f"exact power with exponent {k} exceeds {POWER_BITS} bits")
    return b ** k


def _power_bits(b, k):
    """The bits ``_power`` estimates for an exact b ** k, b an int, a Fraction
    or a _Ratio; 0 for a k that is not integral, whose power is a float."""
    if getattr(k, "denominator", 0) != 1:
        return 0
    n, d = (b, 1) if isinstance(b, int) else (b._numerator, b._denominator)
    return abs(k.numerator) * (abs(n).bit_length() + d.bit_length() - 2)


class _Ratio:
    """n/d with d > 0, never reduced, with Fraction's mixed-type arithmetic,
    so that ``_reduced`` of a result is what step-by-step Fraction
    arithmetic gives, in type and value.

    It has only what the kernels use: ``+ - *`` on either side, ``/``
    with the _Ratio on the left, ``**``, ``==``, ``>=`` and ``bool``.  These
    are exact with an int, a Fraction or another _Ratio; ``==`` and ``>=``
    compare exactly with a float too (``<=`` reflects onto ``>=``).  In
    arithmetic with a float x, ``op`` gives (n / d) op x: Fraction gives
    float(F) op x, and both n / d and float(F) are the correctly rounded
    value of the same rational, so the bits are equal.  ``**`` is exact for
    an int k and (n / d) ** k for a float k; Fraction's reflected ``**``
    hands it a Fraction k as its int or, if not integral, its float.  Any
    other operator, such as ``<``, ``x / r``, ``x ** r`` or ``float(r)``, and
    any other operand, a subclass of int or float (bool, say) included, is a
    TypeError.  The slots carry Fraction's own slot names, so a Fraction
    operand is read without a property call.
    """

    __slots__ = ("_numerator", "_denominator")  # Fraction's own slot names

    # operands are told apart by exact type, the cheapest test
    def __add__(self, o):
        t = type(o)
        if t is _Ratio or t is Fraction:
            return _ratio(self._numerator * o._denominator + o._numerator * self._denominator,
                          self._denominator * o._denominator)
        if t is int:
            return _ratio(self._numerator + o * self._denominator, self._denominator)
        return self._numerator / self._denominator + o if t is float else NotImplemented

    __radd__ = __add__  # float + and * are commutative, bit for bit

    def __sub__(self, o):
        t = type(o)
        if t is _Ratio or t is Fraction:
            return _ratio(self._numerator * o._denominator - o._numerator * self._denominator,
                          self._denominator * o._denominator)
        if t is int:
            return _ratio(self._numerator - o * self._denominator, self._denominator)
        return self._numerator / self._denominator - o if t is float else NotImplemented

    def __rsub__(self, o):
        t = type(o)
        if t is _Ratio or t is Fraction:
            return _ratio(o._numerator * self._denominator - self._numerator * o._denominator,
                          self._denominator * o._denominator)
        if t is int:
            return _ratio(o * self._denominator - self._numerator, self._denominator)
        return o - self._numerator / self._denominator if t is float else NotImplemented

    def __mul__(self, o):
        t = type(o)
        if t is _Ratio or t is Fraction:
            return _ratio(self._numerator * o._numerator, self._denominator * o._denominator)
        if t is int:
            return _ratio(self._numerator * o, self._denominator)
        return self._numerator / self._denominator * o if t is float else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        t = type(o)
        if t is _Ratio or t is Fraction:
            return _quotient(self._numerator * o._denominator, self._denominator * o._numerator)
        if t is int:
            return _quotient(self._numerator, self._denominator * o)
        return self._numerator / self._denominator / o if t is float else NotImplemented

    def __pow__(self, k):
        t = type(k)
        if t is int:
            if k >= 0:
                return _ratio(self._numerator ** k, self._denominator ** k)
            return _quotient(self._denominator ** -k, self._numerator ** -k)
        return (self._numerator / self._denominator) ** k if t is float else NotImplemented

    def _compare(self, o, op):
        t = type(o)
        if t is float:
            if not math.isfinite(o):  # as Fraction: any finite value against inf or nan
                return op(0.0, o)
            o, t = Fraction(o), Fraction
        if t is _Ratio or t is Fraction:
            return op(self._numerator * o._denominator, o._numerator * self._denominator)
        return op(self._numerator, o * self._denominator) if t is int else NotImplemented

    def __eq__(self, o):
        return self._compare(o, operator.eq)

    def __ge__(self, o):
        return self._compare(o, operator.ge)

    def __bool__(self):
        return self._numerator != 0

def _ratio(n, d):
    r = object.__new__(_Ratio)  # no __init__ call: every operation builds one
    r._numerator, r._denominator = n, d
    return r


def _quotient(n, d):
    """n/d as a _Ratio with d > 0; a zero d is Fraction's ZeroDivisionError."""
    if d > 0:
        return _ratio(n, d)
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _ratio(-n, -d)


def _lift(v):
    """A Fraction as its unreduced _Ratio; any other value as it is."""
    return _ratio(v._numerator, v._denominator) if type(v) is Fraction else v


def _reduced(v):
    """A _Ratio reduced, by one gcd, to its Fraction; any other value as it is."""
    return Fraction(v._numerator, v._denominator) if type(v) is _Ratio else v
