import heapq
import math
import random
from fractions import Fraction as F

import pytest

from certquad import (CompositeResult, DomainError, ErrorCertificate, Interval, Refusal,
                      RuleParams, adaptive_integrate, composite_integrate,
                      from_expression, named_rule)
from certquad.bounds import certify, prologue
from certquad.rules import midpoint

MIDPOINT = named_rule("midpoint")
SIMPSON = named_rule("simpson")


def test_single_panel_exact(corpus):
    r = composite_integrate(corpus["pow:2"], Interval(F(0), F(1)),
                            MIDPOINT, F(1), "t22", 1)
    assert r.value == F(1, 4)
    assert r.total_bound == F(1, 4)
    assert r.target_met is None
    assert len(r.panels) == 1


def test_two_panels_exact(corpus):
    r = composite_integrate(corpus["pow:2"], Interval(F(0), F(1)),
                            MIDPOINT, F(1), "t22", 2)
    assert r.value == F(5, 16)  # (f(1/4) + f(3/4)) / 2
    assert r.total_bound == F(1, 8)
    assert abs(r.value - F(1, 3)) == F(1, 48) <= r.total_bound
    # panels tile the interval exactly
    assert [(c.interval.a, c.interval.b) for c in r.panels] == [
        (F(0), F(1, 2)), (F(1, 2), F(1))]


def test_panel_endpoints_do_not_drift(corpus):
    # (0.1 * 3) / 3 is 0.10000000000000002: the end cuts are the ends
    for a, b, n in ((0.0, 1.0, 7), (0.1, 1.1, 3)):
        iv = Interval(a, b)
        r = composite_integrate(corpus["exp"], iv, MIDPOINT, 1.0, "t22", n)
        pieces = [c.interval for c in r.panels]
        assert pieces[0].a is iv.a and pieces[-1].b is iv.b
        for left, right in zip(pieces, pieces[1:]):
            assert left.b == right.a


def test_doubling_ratios_on_exp(corpus):
    # frozen reference ratios for midpoint/q=1 total bounds on exp, [0,1]:
    # the first doubling contracts by 4(1+e)/(1+2*sqrt(e)+e) ~ 2.1200, the
    # rest settle toward 2 from above
    e, se = math.e, math.sqrt(math.e)
    first = 4 * (1 + e) / (1 + 2 * se + e)
    assert first == pytest.approx(2.1199703, abs=1e-7)
    bounds = {}
    for n in (1, 2, 4, 8, 16, 32, 64):
        r = composite_integrate(corpus["exp"], Interval(0.0, 1.0),
                                MIDPOINT, 1.0, "t22", n)
        bounds[n] = float(r.total_bound)
        err = abs(float(r.value) - (e - 1))
        assert err <= bounds[n] + 1e-10
    assert bounds[1] / bounds[2] == pytest.approx(first, rel=1e-12)
    for n in (2, 4, 8, 16, 32):
        assert 1.9 <= bounds[n] / bounds[2 * n] <= 2.1


def test_total_bound_definition(corpus):
    r = composite_integrate(corpus["pow:3"], Interval(0.5, 2.0), SIMPSON,
                            2.0, "t23", 5)
    total = sum(c.interval.width * c.bound for c in r.panels)
    assert float(r.total_bound) == pytest.approx(float(total), rel=1e-15)


def test_certified_containment_battery(corpus, oracle_mean):
    for name in ("pow:2", "reciprocal", "exp"):
        f = corpus[name]
        a, b = 0.5, 2.0
        integral = oracle_mean(f, a, b) * (b - a)
        for theorem, q in (("t22", 1.0), ("t22", 2.0), ("t23", 1.5),
                           ("t24", 2.0)):
            for n in (1, 3, 8):
                r = composite_integrate(f, Interval(a, b),
                                        RuleParams(0.4, 0.25), q, theorem, n)
                assert abs(float(r.value) - integral) <= float(
                    r.total_bound) + 1e-10


def test_refinement_monotonicity(corpus):
    for name in ("pow:2", "exp", "reciprocal", "pow:-2"):
        f = corpus[name]
        for params, q in ((MIDPOINT, 1.0), (SIMPSON, 2.0)):
            prev = None
            for n in (1, 2, 4, 8, 16):
                r = composite_integrate(f, Interval(0.5, 2.0), params, q,
                                        "t22", n)
                if prev is not None:
                    assert float(r.total_bound) <= prev + 1e-12
                prev = float(r.total_bound)


def test_validation(corpus):
    with pytest.raises(DomainError):
        composite_integrate(corpus["exp"], Interval(0.0, 1.0), MIDPOINT,
                            1.0, "t22", 0)
    for theorem in ("t99", "T23"):  # engine names are taken as given
        with pytest.raises(DomainError):
            composite_integrate(corpus["exp"], Interval(0.0, 1.0), MIDPOINT,
                                1.0, theorem, 4)
    with pytest.raises(Refusal):
        composite_integrate(corpus["exp"], Interval(0.0, 1.0), MIDPOINT,
                            1.0, "t23", 4)
    with pytest.raises(DomainError):
        adaptive_integrate(corpus["exp"], Interval(0.0, 1.0), MIDPOINT,
                           1.0, "t22", target=0.0)


@pytest.mark.parametrize("count", [0, 1.5, True])
def test_panel_counts_must_be_positive_integers(corpus, count):
    # a bool is an int to isinstance, yet no panel count, as for RuleParams and q
    iv = Interval(0.0, 1.0)
    with pytest.raises(DomainError) as info:
        composite_integrate(corpus["exp"], iv, MIDPOINT, 1.0, "t22", count)
    assert str(info.value) == f"panel count must be a positive integer, got {count!r}"
    with pytest.raises(DomainError) as info:
        adaptive_integrate(corpus["exp"], iv, MIDPOINT, 1.0, "t22", 1e-3, count)
    assert str(info.value) == f"max_panels must be a positive integer, got {count!r}"


def test_adaptive_terminates_at_initial_bound(corpus):
    r = adaptive_integrate(corpus["pow:2"], Interval(F(0), F(1)), MIDPOINT,
                           F(1), "t22", target=F(1, 4))
    assert len(r.panels) == 1
    assert r.target_met is True


def test_exact_total_reads_a_float_target_converted_once(corpus, monkeypatch):
    # the running total of an exact solve is compared with the target at
    # every bisection: a float target is converted to a Fraction once, and
    # each solve stops where the same target given as a Fraction stops it;
    # 0.25 is the first total of pow:2 on [0, 1], a tie that meets the target
    calls = []
    from_float = F.from_float.__func__
    monkeypatch.setattr(F, "from_float",
                        classmethod(lambda cls, x: calls.append(x) or from_float(cls, x)))
    for name, iv, target in (("pow:2", Interval(F(0), F(1)), 0.25),
                             ("pow:3", Interval(F(1, 2), F(3, 2)), 1e-3),
                             ("reciprocal", Interval(F(1, 4), F(3)), 1 / 3)):
        for params, q, theorem in ((MIDPOINT, F(1), "t22"), (SIMPSON, F(2), "t23")):
            r = adaptive_integrate(corpus[name], iv, params, q, theorem, target=target)
            assert calls == []
            assert r == adaptive_integrate(corpus[name], iv, params, q, theorem,
                                           target=F(target)), (name, theorem)
            assert r.target_met is (r.total_bound <= F(target)) is True
            calls.clear()  # a float total reads a Fraction through from_float
    assert adaptive_integrate(corpus["pow:2"], Interval(F(0), F(1)), MIDPOINT, F(1),
                              target=0.25).panels[0].interval == Interval(F(0), F(1))


def test_adaptive_meets_tight_target(corpus):
    f = corpus["exp"]
    r = adaptive_integrate(f, Interval(0.0, 1.0), MIDPOINT, 1.0, "t22",
                           target=1e-3, max_panels=4096)
    assert r.target_met is True
    assert float(r.total_bound) <= 1e-3
    assert abs(float(r.value) - (math.e - 1)) <= 1e-3


def test_adaptive_partial_when_capped(corpus):
    r = adaptive_integrate(corpus["exp"], Interval(0.0, 1.0), MIDPOINT, 1.0,
                           "t22", target=1e-9, max_panels=1)
    assert r.target_met is False
    assert len(r.panels) == 1


def test_adaptive_never_worse_than_uniform(corpus):
    for name in ("pow:2", "exp", "pow:-2"):
        f = corpus[name]
        for params, q, theorem in ((MIDPOINT, 1.0, "t22"),
                                   (SIMPSON, 2.0, "t22")):
            for n in (2, 4, 8, 16):
                uniform = composite_integrate(f, Interval(0.5, 2.0), params,
                                              q, theorem, n)
                adaptive = adaptive_integrate(f, Interval(0.5, 2.0), params,
                                              q, theorem, target=1e-30,
                                              max_panels=n)
                assert len(adaptive.panels) == n
                assert float(adaptive.total_bound) <= float(
                    uniform.total_bound) + 1e-12


def test_adaptive_ties_split_leftmost():
    # constant |f'| makes every equal-width panel bound identical, so the
    # splitting order is decided purely by the tie-break
    from certquad import from_expression
    f = from_expression("3*x + 1", assume_convex=True)
    r = adaptive_integrate(f, Interval(F(0), F(1)), MIDPOINT, F(1), "t22",
                           target=F(1, 10 ** 9), max_panels=3)
    assert [(c.interval.a, c.interval.b) for c in r.panels] == [
        (F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(1))]


def test_advisory_propagates():
    from certquad import from_expression
    f = from_expression("exp(x) + x^2")
    r = composite_integrate(f, Interval(0.0, 1.0), MIDPOINT, 1.0, "t22", 3)
    assert r.advisory


def test_adaptive_panels_inherit_whole_interval_convexity():
    # |f'| = 6x is linear; the probe passes on [1, 1001], so no panel is
    # probed again (a panel such as [751, 1001] fails its own probe)
    from certquad import from_expression
    r = adaptive_integrate(from_expression("3*x^2"), Interval(1.0, 1001.0),
                           MIDPOINT, 1.0, "t22", target=1e-6, max_panels=128)
    assert r.advisory
    assert abs(r.value - (1001 ** 3 - 1)) <= r.total_bound


def test_composite_needs_convexity_on_whole_interval():
    # |f'| = 2 - |x-1| is linear on each panel but concave on [0, 2]
    from certquad import from_expression
    f = from_expression("2*x - (x-1)*abs(x-1)/2")
    for n in (1, 2):
        with pytest.raises(Refusal):
            composite_integrate(f, Interval(0.0, 2.0), MIDPOINT, 1.0, "t22", n)


def test_adaptive_refuses_a_panel_end_on_a_kink():
    # [-1, 3] passes its own step; the second bisection puts a panel end at 0
    from certquad import from_expression
    f = from_expression("abs(x)", assume_convex=True)
    with pytest.raises(Refusal, match=r"t22 reads \|f'\|\*\*1 at the kink x=0 of abs\(x\)"):
        adaptive_integrate(f, Interval(F(-1), F(3)), MIDPOINT, 1, "t22",
                           target=F(1, 100))


def test_one_probe_and_one_coefficient_build_per_solve(monkeypatch):
    import certquad.bounds as bounds
    from certquad import from_expression
    calls = {"probe": 0, "coeffs": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bounds, "probe_convexity",
                        counted("probe", bounds.probe_convexity))
    monkeypatch.setattr(bounds, "power_mean_coeffs",
                        counted("coeffs", bounds.power_mean_coeffs))
    f = from_expression("x^2*exp(x)")
    r = adaptive_integrate(f, Interval(0.0, 1.0), SIMPSON, 2.0, "t22",
                           target=1e-3)
    assert len(r.panels) > 1
    assert calls == {"probe": 1, "coeffs": 1}
    calls.update(probe=0, coeffs=0)
    r = composite_integrate(f, Interval(0.0, 1.0), SIMPSON, 2.0, "t22", 8)
    assert len(r.panels) == 8
    assert calls == {"probe": 1, "coeffs": 1}


# ---------------------------------------------------------------------------
# Each cut read once per solve by the drivers, and nothing else changes

def _solves(corpus, rng):
    """Seeded adaptive and composite solves: Fraction, float, int, mixed and
    -0.0 ends; alpha 0, 1/2, 1 or a float; every engine."""
    ends = [(F(1, 2), F(3)), (0.1, 1.1), (1, 3), (1.0, 3.0), (F(1), F(3)),
            (F(1, 3), 2.5), (-0.0, 1.5), (0.0, 1.5), (-1, F(1, 2))]
    for case in range(72):
        f = corpus[("exp", "pow:2", "pow:3")[case % 3]]
        a, b = ends[case % len(ends)]
        params = RuleParams(rng.choice((F(0), F(1, 2), F(1), 0.3)),
                            rng.choice((F(0), F(1, 3), F(1), 0.6)))
        name = ("t22", "t23", "t24")[case // 3 % 3]
        q = rng.choice((F(1), F(2), 1.5) if name == "t22" else (F(2), 1.5, F(3, 2)))
        iv = Interval(a, b)
        if case % 2:
            yield f, iv, params, q, name, composite_integrate(
                f, iv, params, q, name, rng.randint(1, 9))
        else:
            yield f, iv, params, q, name, adaptive_integrate(
                f, iv, params, q, name, target=1e-4, max_panels=rng.randint(1, 40))


def _twin(x):
    """An equal number of the same type that is a new object (small ints
    are shared by the interpreter, so an int stays itself)."""
    if isinstance(x, F):
        return F(x.numerator, x.denominator)
    return float.fromhex(x.hex()) if isinstance(x, float) else x


def test_memo_changes_no_certificate(corpus):
    panels = 0
    for f, iv, params, q, name, result in _solves(corpus, random.Random(13)):
        for cert in result.panels:
            # a fresh step on new end objects, which reads every end itself
            piece = Interval(_twin(cert.interval.a), _twin(cert.interval.b))
            fresh = certify(piece, *prologue(f, iv, params, q, name))
            for field in ("bound", "approx"):
                got, want = getattr(cert, field), getattr(fresh, field)
                assert (type(got), repr(got)) == (type(want), repr(want)), (
                    f.name, iv, params, q, name, piece, field)
            panels += 1
    assert panels > 500


_KINK = "abs(x - 1/2) + x^2"


@pytest.mark.parametrize("text, a, b, n, error, message", [
    # the kink x = 1/2 lands on a panel end: the first bisection's, the first
    # cut, or the left end, read after the step's f'(b)
    (_KINK, F(-1, 2), F(3, 2), None, Refusal, "{name} reads |f'|**{q} at the kink x=1/2 of " + _KINK),
    (_KINK, F(-1, 2), F(3, 2), 2, Refusal, "{name} reads |f'|**{q} at the kink x=1/2 of " + _KINK),
    (_KINK, F(1, 2), F(2), 3, Refusal, "{name} reads |f'|**{q} at the kink x=1/2 of " + _KINK),
    # f' is fine at -1 and f is not; a cut at 0 divides by zero in f'
    ("ln(x) + x^2", F(-1), F(3), None, DomainError, "ln of non-positive value Fraction(-1, 1)"),
    # t23 reads f' at the node 0 before any f, the others read f(-1) first
    ("ln(x) + x^2", F(-1), F(1), None, DomainError,
     {"t23": "division by zero", None: "ln of non-positive value Fraction(-1, 1)"}),
    ("ln(x) + x^2", F(-1), F(3), 4, DomainError, "division by zero"),
    ("1/x", -1.0, 3.0, 4, DomainError, "division by zero"),
])
@pytest.mark.parametrize("name, q", [("t22", 1), ("t23", 2), ("t24", 2)])
def test_memo_keeps_the_first_error(text, a, b, n, error, message, name, q):
    from certquad import from_expression
    f = from_expression(text, assume_convex=True)
    with pytest.raises(error) as info:
        if n is None:
            adaptive_integrate(f, Interval(a, b), SIMPSON, q, name, target=F(1, 10 ** 6))
        else:
            composite_integrate(f, Interval(a, b), SIMPSON, q, name, n)
    if isinstance(message, dict):
        message = message.get(name, message[None])
    assert str(info.value) == message.format(name=name, q=q)


@pytest.mark.parametrize("fname, a, b, params, q, name, derivatives, values", [
    # 1,024 panels from 2,047 pieces: f' and f once at each distinct end, f at
    # the node of each returned panel only, and f' at every t23 node
    ("pow:3", F(1), F(2), MIDPOINT, 1, "t22", 1025, 2049),
    # at an exact alpha = 1/2 the t23 node of a piece is its cut, read once
    ("exp", F(1, 2), F(3), SIMPSON, 2, "t23", 2049, 2049),
    ("exp", F(1, 2), F(3), RuleParams(F(1, 3), F(1, 2)), 2, "t23", 3072, 2049),
    # float ends: the node's f' is not handed on, the cut reads it again
    ("exp", 0.5, 3.0, SIMPSON, 2, "t23", 3072, 2049),
])
def test_each_point_is_evaluated_once_per_solve(corpus, monkeypatch, fname, a, b,
                                                params, q, name, derivatives, values):
    from certquad.expression import FunctionModel
    calls = {"derivative": 0, "value": 0}

    def counted(key):
        original = getattr(FunctionModel, key)

        def wrapper(self, x):
            calls[key] += 1
            return original(self, x)
        return wrapper

    for key in calls:
        monkeypatch.setattr(FunctionModel, key, counted(key))
    r = adaptive_integrate(corpus[fname], Interval(a, b), params, q, name, target=1e-3)
    assert len(r.panels) == 1024
    assert calls == {"derivative": derivatives, "value": values}


def _exact(*points):
    return [(kind, repr(F(x))) for kind, x in points]


def _float(*points):
    return [(kind, repr(float(x))) for kind, x in points]


_EXACT_ENDS = (("d", "3/2"), ("d", "1/2"))
_EXACT_VALUES = (("v", "1/2"), ("v", "3/2"), ("v", "7/6"))  # f at a, b, then the node 7/6


@pytest.mark.parametrize("case, reads", [
    # one certificate of exp on [1/2, 3/2] at (1/3, 1/2), q = 2: f' at b, then
    # a (and t23's node), then f at a, at b and at the node
    ("t22", _exact(*_EXACT_ENDS, *_EXACT_VALUES)),
    ("t23", _exact(*_EXACT_ENDS, ("d", "7/6"), *_EXACT_VALUES)),
    ("t24", _exact(*_EXACT_ENDS, *_EXACT_VALUES)),
    # three t23 panels of [0.5, 2]: each panel takes its left end from the one before
    ("composite", _float(("d", 1), ("d", 0.5), ("d", 0.875), ("v", 0.5), ("v", 1),
                         ("v", 0.875), ("d", 1.5), ("d", 1.375), ("v", 1.5), ("v", 1.375),
                         ("d", 2), ("d", 1.875), ("v", 2), ("v", 1.875))),
    # four panels of [0, 1]: f' and f once at each cut, f at the returned nodes last
    ("adaptive t22", _float(("d", 1), ("d", 0), ("v", 0), ("v", 1), ("d", 0.5), ("v", 0.5),
                            ("d", 0.75), ("v", 0.75), ("d", 0.25), ("v", 0.25),
                            ("v", 0.1875), ("v", 0.4375), ("v", 0.6875), ("v", 0.9375))),
    ("adaptive t23", _float(("d", 1), ("d", 0), ("d", 0.75), ("v", 0), ("v", 1), ("d", 0.5),
                            ("d", 0.375), ("v", 0.5), ("d", 0.875), ("d", 0.75), ("d", 0.6875),
                            ("v", 0.75), ("d", 0.9375), ("d", 0.25), ("d", 0.1875), ("v", 0.25),
                            ("d", 0.4375), ("v", 0.1875), ("v", 0.4375), ("v", 0.6875),
                            ("v", 0.9375))),
    # exact ends at alpha = 1/2: each cut is the node of the piece it splits,
    # whose f' the lower child takes instead of reading it again
    ("adaptive t23 at 1/2", _exact(("d", 1), ("d", 0), ("d", "1/2"), ("v", 0), ("v", 1),
                                   ("d", "1/4"), ("v", "1/2"), ("d", "3/4"), ("d", "5/8"),
                                   ("v", "3/4"), ("d", "7/8"), ("d", "1/8"), ("v", "1/4"),
                                   ("d", "3/8"), ("v", "1/8"), ("v", "3/8"), ("v", "5/8"),
                                   ("v", "7/8"))),
])
def test_reads_keep_their_order(corpus, monkeypatch, case, reads):
    from certquad.bounds import ENGINES
    from certquad.expression import FunctionModel
    logged = []

    def recording(kind, original):
        def wrapper(self, x):
            logged.append((kind, repr(x)))
            return original(self, x)
        return wrapper

    monkeypatch.setattr(FunctionModel, "derivative", recording("d", FunctionModel.derivative))
    monkeypatch.setattr(FunctionModel, "value", recording("v", FunctionModel.value))
    f, floats = corpus["exp"], RuleParams(0.25, 0.5)
    if case in ENGINES:
        ENGINES[case](f, Interval(F(1, 2), F(3, 2)), RuleParams(F(1, 3), F(1, 2)), 2)
    elif case == "composite":
        composite_integrate(f, Interval(0.5, 2.0), floats, 2, "t23", 3)
    else:
        iv, params = ((Interval(F(0), F(1)), SIMPSON) if case.endswith("1/2")
                      else (Interval(0.0, 1.0), floats))
        r = adaptive_integrate(f, iv, params, 2, case.split()[1], target=1e-12, max_panels=4)
        assert len(r.panels) == 4
    assert logged == reads


# ---------------------------------------------------------------------------
# The adaptive driver on plain numbers: the same solves as one Interval per
# tried piece, and one certificate per emitted panel

def _entry_as_written(step, piece: Interval):
    measure, _ = step  # each piece reads its own ends
    bound, left, right, _ = measure(piece.a, piece.b, piece.width)
    # largest pops first; panels' a differ
    return -(piece.width * bound), piece.a, piece, bound, left, right


def _assemble_as_written(issue, entries, target=None) -> CompositeResult:
    entries = sorted(entries, key=lambda entry: entry[1])
    panels = [issue(piece, bound, left, right) for _, _, piece, bound, left, right in entries]
    value = total = 0  # left to right: the builtin sum compensates floats since 3.12
    for (neg_scaled, *_), cert in zip(entries, panels):
        value += cert.interval.width * cert.approx
        total += -neg_scaled
    return CompositeResult(value, total, panels,
                           None if target is None else bool(total <= target))


def _adaptive_as_written(f, iv: Interval, params: RuleParams, q, theorem: str = "t22",
                         target=None, max_panels: int = 1024) -> CompositeResult:
    """adaptive_integrate before it bisected plain numbers, kept as the
    reference solve: it built an Interval for every piece it tried and
    sorted the panels by their left ends.  It measures every piece and
    issues the panels it returns, so f is read at those panels' nodes only."""
    if target is None or not target > 0:
        raise DomainError(f"target must be positive, got {target!r}")
    if not isinstance(max_panels, int) or max_panels < 1:
        raise DomainError(f"max_panels must be a positive integer, got {max_panels!r}")
    step = prologue(f, iv, params, q, theorem)
    heap = [_entry_as_written(step, iv)]
    total = -heap[0][0]
    while total > target and len(heap) < max_panels:
        neg_scaled, _, piece, *_ = heapq.heappop(heap)
        mid = midpoint(piece.a, piece.b)
        left = _entry_as_written(step, Interval(piece.a, mid))
        right = _entry_as_written(step, Interval(mid, piece.b))
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
        total += -left[0] + -right[0] - (-neg_scaled)
    return _assemble_as_written(step[-1], heap, target)


def _typed(v):
    return type(v), repr(v)


def _solve_outcome(solve, *args, **kwargs):
    """Everything a solve shows, types and reprs included, or its error."""
    try:
        r = solve(*args, **kwargs)
    except (ArithmeticError, DomainError, Refusal) as exc:
        return type(exc), str(exc)
    return (_typed(r.value), _typed(r.total_bound), r.target_met, r.panels,
            [(_typed(c.interval.a), _typed(c.interval.b), _typed(c.interval.width),
              _typed(c.bound), _typed(c.approx)) for c in r.panels])


def _adaptive_cases(corpus, rng):
    """Seeded adaptive solves: float and Fraction params and ends, every
    engine, q in {1, 3/2, 2} as Fraction and float, 1 to 64 panels, targets
    met and missed, a probed expression, and errors in either child."""
    fns = [(corpus["exp"], (0.0, 1.0)), (corpus["pow:2"], (F(-1, 2), F(2))),
           (corpus["pow:3"], (0.25, 3.0)), (corpus["reciprocal"], (F(1, 2), F(3))),
           (corpus["pow:-2"], (1, 3)), (corpus["neglog"], (F(1, 3), 2.5)),
           (from_expression("x^2*exp(x)"), (0.5, 1.5)),
           (from_expression("abs(x - 1/2) + x^2", assume_convex=True), (F(-1, 2), F(3, 2))),
           # at alpha = 1/2 the first bisection's left node is 1 (ln of 0), its right node 3
           (from_expression("1/(x-3) + ln(x^2 - 2*x + 1)", assume_convex=True), (F(0), F(4)))]
    for case in range(240):
        f, (a, b) = fns[case % len(fns)]
        params = RuleParams(*(rng.choice((F(0), F(1, 2), F(1), F(rng.randint(1, 11), 12)))
                              if case % 3 else rng.uniform(0.05, 0.95) for _ in range(2)))
        name = ("t22", "t23", "t24")[case // len(fns) % 3]
        qs = (F(3, 2), 1.5, F(2), 2.0) + ((F(1), 1) if name == "t22" else ())
        target = rng.choice((F(1, 10), 1e-2, 1e-4, F(1, 10 ** 6), 1e-12))
        yield f, Interval(a, b), params, rng.choice(qs), name, target, rng.randint(1, 64)


def test_adaptive_matches_the_driver_that_certified_every_piece(corpus):
    outcomes = {"met": 0, "missed": 0, "raised": 0}
    for f, iv, params, q, name, target, max_panels in _adaptive_cases(corpus, random.Random(21)):
        got = _solve_outcome(adaptive_integrate, f, iv, params, q, name, target, max_panels)
        want = _solve_outcome(_adaptive_as_written, f, iv, params, q, name, target, max_panels)
        assert got == want, (f.name, iv, params, q, name, target, max_panels)
        outcomes["raised" if len(got) == 2 else "met" if got[2] else "missed"] += 1
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("ends", [(F(1, 2), F(3)), (0.5, 3.0), (F(1, 3), 2.5)],
                         ids=["Fraction", "float", "mixed"])
@pytest.mark.parametrize("rule", ["midpoint", "trapezoid", "simpson"])
def test_named_rules_match_the_driver_that_certified_every_piece(corpus, ends, rule):
    """The named rules (alpha = 1/2) under every engine, and t22 at q = 1,
    whose exact bounds make Fraction heap keys: Fraction ends cut on
    unreduced ratios and hand t23's node on, float and mixed ends do not."""
    solves = [("exp", F(2), name) for name in ("t22", "t23", "t24")]
    solves += [(fname, 1, "t22") for fname in ("pow:2", "reciprocal")]
    for fname, q, name in solves:
        for target, max_panels, met in ((F(1, 4), 64, True), (1e-6, 16, False)):
            args = corpus[fname], Interval(*ends), named_rule(rule), q, name, target, max_panels
            got = _solve_outcome(adaptive_integrate, *args)
            assert got == _solve_outcome(_adaptive_as_written, *args), args
            assert got[2] is met, args


def test_one_certificate_per_emitted_panel(corpus, monkeypatch):
    built = {"certificate": 0, "interval": 0}
    checked = Interval.__post_init__

    def counted_certificate(self):
        built["certificate"] += 1

    def counted_interval(self):
        built["interval"] += 1
        checked(self)

    monkeypatch.setattr(ErrorCertificate, "__post_init__", counted_certificate)
    monkeypatch.setattr(Interval, "__post_init__", counted_interval)
    for f, iv, params, q, name, target, max_panels in _adaptive_cases(corpus, random.Random(22)):
        built.update(certificate=0, interval=0)
        try:
            r = adaptive_integrate(f, iv, params, q, name, target, max_panels)
        except (ArithmeticError, DomainError, Refusal):
            continue
        n = len(r.panels)
        assert built["certificate"] == n and built["interval"] <= n
        assert built["interval"] == (0 if n == 1 else n)  # one panel is iv itself
        built.update(certificate=0, interval=0)
        _adaptive_as_written(f, iv, params, q, name, target, max_panels)
        assert built == {"certificate": n, "interval": 2 * n - 2}
