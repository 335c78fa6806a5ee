"""A fixed interpreter-bound kernel that gauges how fast the machine it runs
on executes Python at the moment, independently of certquad.

On a shared machine the speed of one CPU drifts by a quarter or more between
minutes, for certquad and for this kernel alike.  The benchmark runs the
kernel in short bursts between the operations of its in-process workloads
and reports their times scaled by
REFERENCE_S / (mean burst time): what they would have been at the speed the
kernel had where REFERENCE_S was taken.  The kernel mixes what certquad's
layers do: recursive evaluation over frozen dataclasses, float powers and
exp, and small Fraction arithmetic.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

# median burst() time on the shared 2-core x86-64 VM where bench/README.md's
# figures were taken (Python 3.11.7)
REFERENCE_S = 0.022


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


_TREE = _Node("+", _Node("*", "x", _Node("^", "x", 3)), _Node("exp", "x", None))


def _evaluate(node, x):
    if node == "x":
        return x
    if node.op == "+":
        return _evaluate(node.left, x) + _evaluate(node.right, x)
    if node.op == "*":
        return _evaluate(node.left, x) * _evaluate(node.right, x)
    if node.op == "^":
        return _evaluate(node.left, x) ** node.right
    return math.exp(_evaluate(node.left, x))


def _kernel() -> float:
    acc = 0.0
    q = Fraction(1, 3)
    for i in range(1, 200):
        acc += _evaluate(_TREE, i * 0.01)
        if i % 4 == 0:
            q = (q * Fraction(i + 1, i) - Fraction(1, i + 3)).limit_denominator(10 ** 6)
        acc += abs(acc) ** 0.5 if _Node("k", i, q).left else 0.0
    return acc


def burst(reps: int = 10) -> float:
    """Seconds taken by ``reps`` runs of the kernel."""
    start = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return time.perf_counter() - start
