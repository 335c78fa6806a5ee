"""Value semantics of the record types: pickling, copying, equality, hash,
repr, read-only fields and construction."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from certquad import (Interval, RuleParams, composite_integrate, differentiate,
                      from_expression, integrate_ref, named_rule, parse,
                      power_mean_bound, proposition_check, resolve_function)
from certquad.composite import CompositeResult
from certquad.expression import (Add, Call, Const, Div, FunctionModel, Mul, Neg,
                                 Pow, Sub, Var, X, sign_arguments, to_string)

SIMPSON = named_rule("simpson")

# the field names, in order, of every record class
FIELDS = {
    "ErrorCertificate": ("interval", "params", "theorem", "q", "p", "bound",
                         "approx", "advisory", "regime"),
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
    "FunctionModel": ("name", "expr", "domain", "provenance"),
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
        composite_integrate(f, iv, SIMPSON, 2.0, "t22", 3),
        Const(F(3, 2)), X, Add(X, Const(1)), Sub(X, Const(1)),
        Mul(Const(2.5), X), Div(Const(1), X), Pow(X, -2), Neg(X),
        Call("exp", Neg(X)),
        FunctionModel("x^3 + ln(x)", parse("x^3 + ln(x)"), (0.0, float("inf"))),
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
    assert type(r).__slots__ == type(r)._fields + DERIVED.get(type(r).__name__, ())
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
    f = from_expression("x^2")
    assert repr(f) == (
        "FunctionModel(name='x^2', expr=Pow(base=Var(), exponent=2), "
        "domain=(-inf, inf), provenance='numerically-probed')")
    assert f.deriv == Mul(Const(2), Var())


def test_keyword_construction_and_defaults():
    f = FunctionModel(name="sq", expr=Mul(X, X))
    assert f == FunctionModel("sq", Mul(X, X), (float("-inf"), float("inf")),
                              "numerically-probed")
    assert f.deriv == differentiate(Mul(X, X))
    assert FunctionModel("sq", Mul(X, X),
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
    lambda: FunctionModel("sq"),                        # missing, defaults exist
    lambda: RuleParams(F(1, 2), F(1, 3), F(1, 4)),      # too many
    lambda: RuleParams(F(1, 2), lam=0, beta=1),         # unknown
    lambda: RuleParams(F(1, 2), alpha=F(1, 3)),         # repeated
    lambda: CompositeResult(1.0, 0.5, [], target_met=True, value=2.0),
    lambda: FunctionModel("sq", X, deriv=Const(1)),     # f' is derived, not given
])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


# the derived slots, after the fields, of every record class that has them
DERIVED = {"FunctionModel": ("deriv", "has_sign", "kinks", "_value", "_derivative"),
           "Interval": ("width",), "RuleParams": ("kink_pairs", "regime", "exact")}


def _derived_stay_out(r):
    """No derived slot in repr or pickle; equality, hash and copies see the
    fields only; every slot is read-only."""
    derived = DERIVED[type(r).__name__]
    assert type(r).__slots__ == FIELDS[type(r).__name__] + derived
    for name in derived:
        assert f"{name}=" not in repr(r)
        assert name.encode() not in pickle.dumps(r)
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    assert r._astuple() == _fields(r)
    assert hash(r) == hash(_fields(r))
    assert r == type(r)(*_fields(r))
    assert pickle.loads(pickle.dumps(r)) == r
    return (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r))


def test_cache_slots_stay_out_of_value_semantics():
    for text in ("x^3 + ln(x)", "abs(x - 1/2) + x*abs(x - 3)"):
        f = from_expression(text)
        assert f == from_expression(text)
        for twin in _derived_stay_out(f):
            assert twin.deriv == f.deriv
            assert twin.has_sign is f.has_sign is False
            assert len(twin.kinks) == len(f.kinks)
            for x in (F(1, 2), 2, 3.5):
                assert repr(twin.value(x)) == repr(f.value(x))
                assert repr(twin.derivative(x)) == repr(f.derivative(x))
                assert [repr(g(x)) for g in twin.kinks] == [repr(g(x)) for g in f.kinks]
    for a, b, width in ((F(1, 3), 2, F(5, 3)), (-0.0, 0.1, 0.1), (F(-1, 2), 0.75, 1.25),
                        (1, 3, 2)):
        iv = Interval(a, b)
        for twin in (iv, *_derived_stay_out(iv)):
            assert type(twin.width) is type(width) and twin.width == width
            assert repr(twin.width) == repr(twin.b - twin.a)
    edges = (0, 2 ** -53, 0.5, 1 - 2 ** -53, 1)
    exact_edges = (0, F(1, 2 ** 53), F(1, 2), 1 - F(1, 2 ** 53), 1)
    for alpha, lam in ([(F(1, 3), F(1, 4)), (0.3, 0.8), (F(1, 2), 0.25), (0.1, 1.0)]
                       + [(a, l) for a in edges for l in edges]
                       + [(a, l) for a in exact_edges for l in exact_edges]):
        params = RuleParams(alpha, lam)
        for twin in _derived_stay_out(params):
            for name in DERIVED["RuleParams"]:
                got, want = getattr(twin, name), getattr(params, name)
                assert type(got) is type(want) and repr(got) == repr(want), (params, name)


@pytest.mark.parametrize("text, has_sign, kinks", [
    ("x^2*exp(x)", False, []),
    ("x*sign(x)", True, ["x"]),  # refused for the sign in f, not the kink
    ("sign(x)", True, []),
    ("abs(x - 1/2) + x*abs(x - 3)", False, ["x - 0.5", "x - 3"]),
    ("abs(3)*x", False, []),  # u' folds to 0, so sign(u)*u' leaves f'
    ("abs(abs(x) - 1)", False, ["abs(x) - 1", "x"]),  # outer, then inner
])
def test_sign_facts_come_from_the_model(text, has_sign, kinks):
    f = from_expression(text)
    assert f.has_sign is has_sign
    assert [to_string(u) for u in sign_arguments(f.deriv)] == kinks
    assert len(f.kinks) == len(kinks)
