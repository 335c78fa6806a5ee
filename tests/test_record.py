"""Value semantics of the record types: pickling, copying, equality, hash,
repr, read-only fields and construction."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from certquad import (Interval, RuleParams, composite_integrate, from_expression,
                      holder_coeffs, integrate_ref, named_rule, power_mean_bound,
                      power_mean_coeffs, proposition_check, resolve_function)
from certquad.composite import CompositeResult
from certquad.expression import (Add, Call, Const, Div, FunctionModel, Mul, Neg,
                                 Pow, Sub, Var, X)

SIMPSON = named_rule("simpson")

# the field names, in order, of every record class
FIELDS = {
    "ErrorCertificate": ("interval", "params", "theorem", "q", "p", "bound",
                         "approx", "advisory", "regime"),
    "PowerMeanCoefficients": ("gamma1", "gamma2", "upsilon1", "upsilon2", "mu1",
                              "mu2", "mu3", "mu4", "eta1", "eta2", "eta3", "eta4"),
    "HolderCoefficients": ("p", "eps1", "eps2", "eps3", "eps4"),
    "CompositeResult": ("value", "total_bound", "panels", "target_met"),
    "Const": ("value",),
    "Var": (),
    "Add": ("left", "right"),
    "Sub": ("left", "right"),
    "Mul": ("left", "right"),
    "Div": ("left", "right"),
    "Pow": ("base", "exponent"),
    "Neg": ("operand",),
    "Call": ("func", "arg"),
    "FunctionModel": ("name", "expr", "deriv", "domain", "convex_for_all_q",
                      "provenance"),
    "PropositionResult": ("lhs", "rhs", "holds"),
    "OracleResult": ("value", "abs_error_estimate", "refinement_depth"),
    "RuleParams": ("alpha", "lam"),
    "Interval": ("a", "b"),
}


def _instances():
    f = resolve_function("exp")
    iv = Interval(F(1, 4), F(3, 2))
    return [
        power_mean_bound(f, iv, SIMPSON, 2.0),
        power_mean_coeffs(SIMPSON),
        holder_coeffs(SIMPSON, F(2)),
        composite_integrate(f, iv, SIMPSON, 2.0, "t22", 3),
        Const(F(3, 2)), X, Add(X, Const(1)), Sub(X, Const(1)),
        Mul(Const(2.5), X), Div(Const(1), X), Pow(X, -2), Neg(X),
        Call("exp", Neg(X)),
        from_expression("x^3 + ln(x)", domain=(0.0, float("inf"))),
        proposition_check(1, 1.5, 3.25, RuleParams(0.55, 0.15), 1.5, n=3),
        integrate_ref(lambda x: x * x, 0.0, 1.0),
        RuleParams(F(1, 2), 0.25), Interval(-1.0, F(1, 3)),
    ]


def _fields(r):
    return tuple(getattr(r, name) for name in FIELDS[type(r).__name__])


def test_one_instance_of_every_record_class():
    assert sorted(type(r).__name__ for r in _instances()) == sorted(FIELDS)


@pytest.mark.parametrize("r", _instances(), ids=lambda r: type(r).__name__)
def test_value_semantics(r):
    assert type(r)._fields == FIELDS[type(r).__name__]
    if not isinstance(r, FunctionModel):  # the one record with cache slots
        assert type(r).__slots__ == type(r)._fields
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(twin) is type(r) and twin == r and _fields(twin) == _fields(r)
    try:
        expected = hash(_fields(r))
    except TypeError:  # a list field makes the record unhashable too
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected
    name = FIELDS[type(r).__name__][0] if FIELDS[type(r).__name__] else "value"
    with pytest.raises(AttributeError):
        setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, name)
    assert r != _fields(r)


def test_equality_needs_the_same_class():
    assert Add(X, Const(1)) != Sub(X, Const(1))
    assert Add(X, Const(1)) == Add(Var(), Const(1))
    assert len({Add(X, Const(1)), Add(X, Const(1)), Sub(X, Const(1))}) == 2


def test_repr_matches_dataclass_format():
    assert repr(RuleParams(F(1, 2), F(1, 3))) == \
        "RuleParams(alpha=Fraction(1, 2), lam=Fraction(1, 3))"
    assert repr(from_expression("x^2")) == (
        "FunctionModel(name='x^2', expr=Pow(base=Var(), exponent=2), "
        "deriv=Mul(left=Const(value=2), right=Var()), domain=(-inf, inf), "
        "convex_for_all_q=False, provenance='numerically-probed')")


def test_keyword_construction_and_defaults():
    f = FunctionModel(name="sq", expr=Mul(X, X), deriv=Mul(Const(2), X))
    assert f == FunctionModel("sq", Mul(X, X), Mul(Const(2), X),
                              (float("-inf"), float("inf")), False,
                              "numerically-probed")
    assert FunctionModel("sq", Mul(X, X), Mul(Const(2), X),
                         provenance="builtin").provenance == "builtin"
    r = CompositeResult(1.0, 0.5, [])
    assert r.target_met is None and r.panels == []
    assert RuleParams(lam=1, alpha=F(1, 2)) == RuleParams(F(1, 2), F(1))


def test_post_init_runs_on_every_construction_path():
    assert RuleParams(alpha=1, lam=0).alpha == F(1)  # ints are normalised
    with pytest.raises(ValueError):
        Interval(b=0.0, a=1.0)


@pytest.mark.parametrize("call", [
    lambda: RuleParams(F(1, 2)),                        # missing
    lambda: Interval(),                                 # missing both
    lambda: FunctionModel("sq", X),                     # missing, defaults exist
    lambda: RuleParams(F(1, 2), F(1, 3), F(1, 4)),      # too many
    lambda: RuleParams(F(1, 2), lam=0, beta=1),         # unknown
    lambda: RuleParams(F(1, 2), alpha=F(1, 3)),         # repeated
    lambda: CompositeResult(1.0, 0.5, [], target_met=True, value=2.0),
])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_cache_slots_stay_out_of_value_semantics():
    f = from_expression("x^3 + ln(x)")
    assert FunctionModel.__slots__ == FIELDS["FunctionModel"] + ("_value", "_derivative")
    assert "_value" not in repr(f) and "_derivative" not in repr(f)
    assert f._astuple() == _fields(f)
    assert hash(f) == hash(_fields(f))
    assert f == from_expression("x^3 + ln(x)")
    assert pickle.loads(pickle.dumps(f)) == f
    assert b"_value" not in pickle.dumps(f) and b"_derivative" not in pickle.dumps(f)
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        for x in (F(1, 2), 2, 3.5):
            assert repr(twin.value(x)) == repr(f.value(x))
            assert repr(twin.derivative(x)) == repr(f.derivative(x))
    with pytest.raises(AttributeError):
        f._value = None
