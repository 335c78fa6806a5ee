import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certquad import (DomainError, ParseError, builtin_corpus, differentiate,
                      evaluate, from_expression, parse, power_model,
                      probe_convexity, resolve_function, to_string)
from certquad.expression import (PROBE_GRID, Add, Call, Const, Div, Mul, Neg, Pow,
                                 Sub, Var, X, FunctionModel, _compile, _diff,
                                 _is_integral)
from certquad.prng import SplitMix64


def derivative_matches_fd(f: FunctionModel, lo, hi, *, points: int = 64,
                          h: float = 1e-6, tol: float = 1e-6) -> bool:
    """Central finite difference agrees with the symbolic derivative.

    Mixed absolute/relative comparison at ``tol`` over equispaced interior
    sample points.
    """
    lo, hi = float(lo), float(hi)
    for i in range(points):
        x = lo + (hi - lo) * (i + 0.5) / points
        sym = float(f.derivative(x))
        fd = (float(f.value(x + h)) - float(f.value(x - h))) / (2 * h)
        if abs(fd - sym) > tol * (1 + abs(sym)):
            return False
    return True


def test_parse_examples():
    assert parse("x^3") == Pow(X, 3)
    assert parse("1/x") == Div(Const(1), X)
    assert parse("-ln(x)") == Neg(Call("ln", X))


def test_parse_precedence():
    assert parse("-x^2") == Neg(Pow(X, 2))
    assert parse("2*x + 1") == Add(Mul(Const(2), X), Const(1))
    assert parse("x - 1 - 2") == Sub(Sub(X, Const(1)), Const(2))
    assert parse("x^-2") == Pow(X, -2)
    assert parse("(x + 1)^2") == Pow(Add(X, Const(1)), 2)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        parse("x + y")
    assert info.value.offset == 4
    with pytest.raises(ParseError):
        parse("x ^ x")  # exponent must fold to a constant
    for text in ("x^((-8)^0.5)", "x^(1/0)", "x^(0^-1)", "x^(1e308*10)"):
        with pytest.raises(ParseError) as info:
            parse(text)  # the constant exponent is outside its domain or not finite
        assert info.value.offset == 2
    with pytest.raises(ParseError):
        parse("exp 2")
    with pytest.raises(ParseError):
        parse("1 +")


def test_differentiate_examples():
    assert differentiate(Pow(X, 5)) == Mul(Const(5), Pow(X, 4))
    d = differentiate(parse("1/x"))
    assert evaluate(d, F(2)) == F(-1, 4)
    d = differentiate(parse("-ln(x)"))
    assert evaluate(d, F(4)) == F(-1, 4)


def test_differentiate_abs_uses_sign_with_zero_at_kink():
    d = differentiate(parse("abs(x)"))
    assert evaluate(d, 2.0) == 1
    assert evaluate(d, -3.0) == -1
    assert evaluate(d, 0.0) == 0


def test_huge_exact_powers_refuse():
    # both sites that would expand 2**(10**9) into an exact int refuse at once,
    # with an ArithmeticError, so best_bound drops such a candidate
    with pytest.raises(OverflowError, match="exponent 1000000000 exceeds"):
        differentiate(parse("x*2^1e9"))
    with pytest.raises(OverflowError, match="exponent 1000000000 exceeds"):
        evaluate(Pow(X, 10 ** 9), F(1, 2))
    # bases 0 and +-1 stay small, and float bases overflow on their own
    assert [evaluate(Pow(Const(b), 10 ** 9), None) for b in (0, 1, -1)] == [0, 1, 1]
    assert evaluate(Pow(X, 10 ** 9), 0.5) == 0.0
    assert evaluate(Pow(X, 1000), F(3, 2)) == F(3, 2) ** 1000


def test_small_powers_of_x_skip_the_size_check():
    # decided at compile time: x^3 and pow:N take x ** k with no helper call
    assert "_power" not in _compile(Pow(X, 3)).__code__.co_names
    assert "_power" in _compile(Pow(Add(X, Const(1)), 3)).__code__.co_names


def test_evaluate_domain_checks():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0)
    with pytest.raises(DomainError):
        evaluate(parse("ln(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), -4.0)
    assert evaluate(parse("x^0.5"), 4.0) == 2.0


def test_evaluate_keeps_fractions_exact():
    e = parse("x^3 + 1/x")
    assert evaluate(e, F(1, 2)) == F(1, 8) + 2


def test_corpus_contents():
    corpus = {m.name: m for m in builtin_corpus()}
    assert set(corpus) == {"pow:2", "pow:3", "pow:4", "pow:-2",
                           "reciprocal", "neglog", "exp", "negexp"}
    x2 = corpus["pow:2"]
    assert evaluate(x2.deriv, F(3)) == 6
    rec = corpus["reciprocal"]
    assert rec.domain[0] == 0.0
    assert evaluate(rec.deriv, F(2)) == F(-1, 4)
    nl = corpus["neglog"]
    assert nl.domain[0] == 0.0
    assert evaluate(nl.deriv, 2.0) == -0.5
    assert all(m.provenance == "builtin" for m in corpus.values())


def test_unknown_provenance_is_refused():
    # certificates are advisory exactly for numerically-probed models, so a
    # misspelt provenance must not pass as proven convexity
    from certquad.expression import FunctionModel
    with pytest.raises(DomainError):
        FunctionModel("sq", parse("x^2"), provenance="proven")


def test_resolve_function():
    assert resolve_function("pow:3").name == "pow:3"
    assert resolve_function("pow:5").name == "pow:5"
    user = resolve_function("x^2 + 1")
    assert user.provenance == "numerically-probed"
    asserted = resolve_function("x^2 + 1", assume_convex=True)
    assert asserted.provenance == "user-asserted"
    with pytest.raises(DomainError):
        resolve_function("pow:zero")


def test_power_model_sides():
    neg = power_model(-2, "neg")
    assert neg.domain == (float("-inf"), 0.0)
    assert neg.value(F(-2)) == F(1, 4)
    with pytest.raises(DomainError):
        power_model(0)


def test_derivative_matches_finite_difference():
    windows = {"exp": (-1.0, 1.5), "negexp": (-1.0, 1.5)}
    for f in builtin_corpus():
        lo, hi = windows.get(f.name, (0.35, 2.85))
        assert derivative_matches_fd(f, lo, hi), f.name


@pytest.mark.parametrize("q", [1, 1.5, 2, 3])
def test_probe_accepts_corpus(q):
    windows = {"exp": (-1.0, 1.5), "negexp": (-1.0, 1.5)}
    for f in builtin_corpus():
        lo, hi = windows.get(f.name, (0.5, 2.5))
        assert probe_convexity(f, q, lo, hi), f.name


def test_probe_rejects_concave_power():
    # |f'| = |1.5 * x^0.5| and sqrt is concave on (0, inf)
    f = from_expression("x^1.5")
    assert not probe_convexity(f, 1, 0.5, 2.5)


def _pairs_as_written(vals):
    """The probe's former pair loop, with its absolute slack of 1e-12; kept
    verbatim as the reference verdict on the benchmark's inputs."""
    for i in range(PROBE_GRID):
        for j in range(i, PROBE_GRID):
            if vals[i + j] > (vals[2 * i] + vals[2 * j]) / 2 + 1e-12:
                return False
    return True


_FINE = 2 * PROBE_GRID - 1
_WORKLOAD_EXPRESSIONS = ("x^2*exp(x)", "x^4 + x^2", "exp(2*x) + x^3", "x^3 + 3*x",
                         "x*exp(x)", "exp(x) + exp(-x)")


class _Samples:
    """A model without kinks whose |f'| at x = k is vals[k]: probed at
    q = 1 on [0, _FINE - 1], its samples are vals."""

    kinks, name = (), "samples"

    def __init__(self, vals):
        self.derivative = lambda x: vals[int(x)]


def _probe_samples(vals):
    return probe_convexity(_Samples(vals), 1, 0, _FINE - 1)


def _recorded_probe(f, q, lo, hi):
    """probe_convexity's verdict and the samples it decided from."""
    assert not f.kinks  # one read per sample
    reads = []

    class Recording:
        kinks, name = f.kinks, f.name

        def derivative(self, x):
            reads.append(f.derivative(x))
            return reads[-1]

    verdict = probe_convexity(Recording(), q, lo, hi)
    return verdict, [abs(float(d)) ** float(q) for d in reads]


def _ulps(v, k):
    """v moved k ulps up (k > 0) or down."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else 0.0)
    return v


def _probe_families(rng: random.Random):
    """Seeded nonnegative sample lists on both sides of the probe's threshold."""
    ks = range(_FINE)
    for _ in range(300):  # tiny curvature on huge offsets, 1/4 to 64 times 2**-49
        top = 10.0 ** rng.uniform(-6, 300)
        c = top * 2.0 ** -49 * 2.0 ** rng.uniform(-2, 6) / 2
        k0 = rng.uniform(-50, 176)
        offset = top - c * max(k0, 126 - k0) ** 2
        yield "curvature", [offset + c * (k - k0) ** 2 for k in ks]
    for _ in range(200):  # linear, exact or rounded
        base, step = 10.0 ** rng.uniform(-10, 15), 10.0 ** rng.uniform(-16, 2)
        yield "linear", [base + step * k for k in ks]
    for _ in range(400):  # convex lists with one sample nudged by k ulps
        top, width = 10.0 ** rng.uniform(-8, 12), 10.0 ** rng.uniform(-12, 1)
        g = rng.choice((math.exp, lambda t: 1 + t * t, lambda t: math.cosh(t) + 1e3))
        vals = [top * g(width * k / 126) for k in ks]
        i = rng.randrange(_FINE)
        k = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 8, 16, 64))
        vals[i] = _ulps(vals[i], k)
        yield "nudged" if abs(k) <= 8 else "nudged far", vals
    for _ in range(100):  # subnormal samples
        c = rng.randrange(1, 4)
        yield "subnormal", [5e-324 * (c * (k - 63) ** 2 + rng.randrange(3)) for k in ks]
    for _ in range(100):  # magnitudes near and above 2**1020
        top, e = 2.0 ** rng.uniform(1008, 1023.9), rng.choice((-1, 1))
        yield ("huge convex" if e < 0 else "huge concave",
               [top * (1 - 0.5 * (k - 63) ** 2 / 63 ** 2) ** e for k in ks])
    for bad in (math.nan, math.inf):  # a non-finite sample among convex ones
        for i in (0, 1, 63, 126):
            vals = [1.0 + (k - 63) ** 2 for k in ks]
            vals[i] = bad
            yield "non-finite", vals
    for _ in range(200):  # concave
        top, p = 10.0 ** rng.uniform(-9, 15), rng.uniform(0.05, 0.95)
        yield "concave", [top * ((k + 1) / 127) ** p for k in ks]


def test_probe_rule_on_sample_families():
    seen = {}
    for family, vals in _probe_families(random.Random(20)):
        if all(map(math.isfinite, vals)):
            verdict = _probe_samples(vals)
        else:
            with pytest.raises(OverflowError, match=r"probe \|f'\|\*\*1 overflows at x="):
                _probe_samples(vals)
            verdict = "raises"
        seen.setdefault(family, set()).add(verdict)
    # a convex list whose samples round, underflow or near MAX passes, a
    # concave one fails, and a nudge of 64 ulps can tip a sample over 16u
    assert seen == {"curvature": {True}, "linear": {True}, "nudged": {True},
                    "nudged far": {True, False}, "subnormal": {True},
                    "huge convex": {True, "raises"}, "huge concave": {False},
                    "non-finite": {"raises"}, "concave": {False}}


def test_probe_halves_before_adding():
    m = 2.0 ** 1023  # m + m overflows, so a sum before halving would pass the bump
    assert not _probe_samples([m] * 63 + [1.5 * m] + [m] * 63)
    assert _probe_samples([m] * _FINE)


@pytest.mark.parametrize("text, q, lo, hi, verdict, pairs", [
    ("3*x^2", 1, 1.0, 1001.0, True, True),  # linear |f'|, an adaptive test's probe
    ("x^2", 1, 1e6, 1e6 + 1, True, False),  # linear |f'|; the pair loop refused it by rounding
    ("1e-14*(x^4 - 2*x^2)", 1, -2.0, 2.0, False, True),  # not convex, below the old slack
    ("x^1.5", 1, 0.5, 2.5, False, False),  # concave
    ("x^0.5", 1, 0.5, 2.5, True, True),  # convex
    ("x^1.5", 2, 0.5, 2.5, True, True),  # linear |f'|**2
])
def test_probe_keeps_its_verdicts(text, q, lo, hi, verdict, pairs):
    got, vals = _recorded_probe(from_expression(text), q, lo, hi)
    assert (got, _pairs_as_written(vals)) == (verdict, pairs)


def test_probe_raises_on_a_non_finite_sample():
    # the width overflows: the probe names the interval before it reads f' at
    # any point, where the grid would read nan and inf
    with pytest.raises(OverflowError, match=r"probe \|f'\|\*\*1 of x\^2: the width of "
                                            r"\[-1e\+308, 1e\+308\] overflows"):
        probe_convexity(from_expression("x^2"), 1, -1e308, 1e308)


@pytest.mark.parametrize("q", [1, 1.5, 2, 3])
def test_probe_agrees_with_the_pair_loop_on_corpus_and_workload(q):
    # the corpus windows, and the workload expressions on cli_mix's 32
    # rational intervals (left ends 1/4 .. 2, widths 1/2 .. 2)
    windows = {"exp": (-1.0, 1.5), "negexp": (-1.0, 1.5)}
    models = [(f, *windows.get(f.name, (0.5, 2.5))) for f in builtin_corpus()]
    models += [(from_expression(t), F(i, 4), F(i, 4) + F(j, 2)) for t in _WORKLOAD_EXPRESSIONS
               for i in range(1, 9) for j in range(1, 5)]
    for f, lo, hi in models:
        verdict, vals = _recorded_probe(f, q, lo, hi)
        assert verdict is _pairs_as_written(vals), (f.name, lo, hi)


@pytest.mark.parametrize("q", [1, 2])
def test_workload_expressions_take_the_one_pass(q):
    # adaptive_probed's draw: a in [0.25, 1.5], width in [0.5, 1.5]
    rng = random.Random(f"probe-draws:{q}")
    for text in _WORKLOAD_EXPRESSIONS:
        f = from_expression(text)
        for _ in range(40):
            a = rng.uniform(0.25, 1.5)
            verdict, vals = _recorded_probe(f, float(q), a, a + rng.uniform(0.5, 1.5))
            assert verdict and _pairs_as_written(vals), (text, a)


@pytest.mark.parametrize("text, lo, hi, verdict", [
    ("abs(x)", -1, 2, True),  # |f'| = 1 on both sides of the kink, sample 42
    ("abs(x)", -1, 1, True),  # the kink at sample 63
    ("abs(x-1/2)+x^2", 0, 1, False),  # |f'| jumps from 0 to 2 at the kink
    ("x^2 - abs(x)", -1, 1, False),  # |f'| peaks at the kink
])
def test_probe_reads_one_sided_values_at_kinks(text, lo, hi, verdict):
    assert probe_convexity(from_expression(text), 1, lo, hi) is verdict


def test_probe_reads_a_kink_at_an_end_from_inside():
    # concave |f'| = 1 + 1.5*x^0.5 on (0, 1]; f' left of the kink at lo raises
    f = from_expression("abs(x) + x^1.5")
    with pytest.raises(DomainError, match="negative base"):
        f.derivative(math.nextafter(0.0, -1.0))
    assert probe_convexity(f, 1, 0, 1) is False


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: interval verdicts")
def test_probe_passes_a_cancelling_derivative():
    # |f'| = 2*sinh(x) is convex, but its samples carry noise above 16u
    assert probe_convexity(from_expression("exp(x) + exp(-x)"), 1, 1e-8, 2e-8)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: interval verdicts")
def test_probe_sees_curvature_below_its_threshold():
    # |f'| = 1.5*x^0.5 is concave, but its second difference over one step,
    # 2.4e-14, hides under sample rounding of 2.3e-13; the pair loop refused it
    assert not probe_convexity(from_expression("x^1.5"), 1, 1e6, 1e6 + 1)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: interval verdicts")
def test_probe_sees_a_jump_between_samples():
    # |f'| jumps up at 0.3, which no sample reads
    assert not probe_convexity(from_expression("abs(x-0.3)+x^2"), 1, -1000, 1000)


def _random_expr(rng: SplitMix64, depth: int):
    # int and float leaves only: the parser never produces Fraction
    # constants (those arrive via programmatic construction), so they are
    # outside the round-trip contract
    leaves = [Const(2), Const(0.5), Const(-3), X, X]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "call", "leaf"])
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "neg":
        child = _random_expr(rng, depth - 1)
        if isinstance(child, Const):
            return Const(-child.value)  # parser folds literal negation
        return Neg(child)
    if kind == "pow":
        return Pow(_random_expr(rng, depth - 1), rng.choice([2, 3, -2, 0.5, 1.5]))
    if kind == "call":
        return Call(rng.choice(["exp", "ln", "abs", "sign"]),
                    _random_expr(rng, depth - 1))
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    ctor = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return ctor(left, right)


def test_roundtrip_corpus():
    thirds = from_expression("1/3*x^3")
    for f in [*builtin_corpus(), thirds]:
        assert parse(to_string(f.expr)) == f.expr
        assert parse(to_string(f.deriv)) == f.deriv
    # simplify folds 1/3 as the evaluator divides it, to a float
    got = thirds.derivative(F(1, 2))
    unsimplified = evaluate(_diff(thirds.expr), F(1, 2))
    assert (type(got), got) == (type(unsimplified), unsimplified)


def test_roundtrip_random_trees():
    rng = SplitMix64(5)
    for _ in range(1000):
        e = _random_expr(rng, rng.next_u64() % 6 + 1)
        s = to_string(e)
        assert parse(s) == e, s


def _walk(e, x):
    """The tree-walking evaluator the compiler replaced, kept as the reference."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        return _walk(e.left, x) + _walk(e.right, x)
    if isinstance(e, Sub):
        return _walk(e.left, x) - _walk(e.right, x)
    if isinstance(e, Mul):
        return _walk(e.left, x) * _walk(e.right, x)
    if isinstance(e, Div):
        num = _walk(e.left, x)
        den = _walk(e.right, x)
        if den == 0:
            raise DomainError("division by zero")
        return num / den
    if isinstance(e, Neg):
        return -_walk(e.operand, x)
    if isinstance(e, Pow):
        base = _walk(e.base, x)
        n = e.exponent
        if _is_integral(n):
            k = int(n)
            if base == 0 and k < 0:
                raise DomainError("zero base with negative exponent")
            return base ** k
        if base < 0:
            raise DomainError(f"negative base {base!r} with non-integer exponent")
        if base == 0 and n < 0:
            raise DomainError("zero base with negative exponent")
        return float(base) ** float(n)
    if isinstance(e, Call):
        v = _walk(e.arg, x)
        if e.func == "exp":
            return math.exp(v)
        if e.func == "ln":
            if v <= 0:
                raise DomainError(f"ln of non-positive value {v!r}")
            return math.log(v)
        if e.func == "abs":
            return abs(v)
        if e.func == "sign":
            return (v > 0) - (v < 0)
    raise TypeError(f"not an Expr: {e!r}")


_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.floats(-4, 4),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan]))
_EXPONENTS = st.sampled_from([0, 1, 2, 3, -1, -2, 2.0, -1.0, 0.5, -0.5, 1.5,
                              F(2), F(-1), F(1, 2), F(-3, 2)])
_TREES = st.recursive(
    st.one_of(st.just(X), st.builds(Const, _NUMBERS)),
    lambda sub: st.one_of(
        *(st.builds(ctor, sub, sub) for ctor in (Add, Sub, Mul, Div)),
        st.builds(Neg, sub),
        st.builds(Pow, sub, _EXPONENTS),
        st.builds(Call, st.sampled_from(["exp", "ln", "abs", "sign"]), sub)),
    max_leaves=10)


def _outcome(fn, x):
    """The value with its type, or the error raised with its message."""
    try:
        v = fn(x)
    except (DomainError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return type(v), repr(v)  # repr keeps -0.0 apart from 0.0


@settings(max_examples=400, deadline=None)
@given(_TREES, st.lists(_NUMBERS, min_size=1, max_size=6))
def test_compiled_closure_matches_tree_walk(e, points):
    compiled = _compile(e)
    for x in points:
        want = _outcome(lambda x: _walk(e, x), x)
        assert _outcome(compiled, x) == want
        assert _outcome(lambda x: evaluate(e, x), x) == want
