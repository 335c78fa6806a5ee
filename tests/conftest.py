import os
from pathlib import Path

import pytest

import certquad
from certquad import Interval, builtin_corpus, mean_ref

INTERVALS = [(0.5, 1.5), (1.0, 2.0), (0.25, 3.0)]


def uniform_in(rng, lo: float, hi: float) -> float:
    """A uniform double in [lo, hi) from a ``certquad.prng.SplitMix64``."""
    return lo + (hi - lo) * rng.uniform()


def child_env():
    """Environment for a ``python -m certquad`` child process: the directory
    that holds the imported certquad package goes first on PYTHONPATH, so
    the child imports the same code without an installed package."""
    env = dict(os.environ)
    root = str(Path(certquad.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def corpus():
    return {m.name: m for m in builtin_corpus()}


@pytest.fixture(scope="session")
def oracle_mean():
    """Session cache of reference means, keyed by (function, a, b)."""
    cache = {}

    def lookup(f, a, b, tol=1e-12):
        key = (f.name, float(a), float(b), tol)
        if key not in cache:
            cache[key] = mean_ref(f, Interval(a, b), tol=tol)
        return cache[key]

    return lookup
