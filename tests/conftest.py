"""Shared oracles and generators for the test suite."""

import functools
import itertools

import numpy as np
import pytest

from fcblab import BlockMultilinearPolynomial, Polynomial, checks, qsim, word_class
from fcblab.checks import random_poly  # noqa: F401 - imported by the test modules


def brute_force_coeffs(values: dict, n: int) -> dict:
    """Independent interpolation oracle: direct sums over all subsets."""
    out = {}
    for r in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), r):
            total = 0.0
            for x, v in values.items():
                prod = 1.0
                for i in s:
                    prod *= x[i - 1]
                total += v * prod
            c = total / 2**n
            if c != 0.0:
                out[s] = c
    return out


def all_points(n: int):
    return itertools.product((1, -1), repeat=n)


def parity_classes(n: int, d: int) -> dict:
    """All length-d words over [n+1] grouped by word_class, each class in lexicographic order."""
    classes: dict = {}
    for w in itertools.product(range(1, n + 2), repeat=d):
        classes.setdefault(word_class(w, n), []).append(w)
    return classes


def maj3() -> Polynomial:
    return Polynomial(3, {(1,): 0.5, (2,): 0.5, (3,): 0.5, (1, 2, 3): -0.5})


random_homogeneous = functools.partial(checks.random_homogeneous, n_max=5, d_max=4)
random_homogeneous_bml = functools.partial(checks.random_homogeneous_bml, n_max=4, d_max=4)


def random_nonhomogeneous_bml(
    rng: np.random.Generator, n_max: int = 3, d_max: int = 4
) -> BlockMultilinearPolynomial:
    """At least two distinct nonzero degree parts."""
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    coeffs = {}
    degrees = rng.choice(range(1, d + 1), size=2, replace=False)
    for r in set(int(v) for v in degrees) | {int(rng.integers(1, d + 1)) for _ in range(2)}:
        for _ in range(int(rng.integers(1, 4))):
            blocks = tuple(sorted(rng.choice(range(1, d + 1), size=r, replace=False).tolist()))
            idx = tuple(int(i) for i in rng.integers(1, n + 1, size=r))
            coeffs[tuple(zip(blocks, idx))] = float(rng.standard_normal())
    if rng.random() < 0.3:
        coeffs[()] = float(rng.standard_normal())
    return BlockMultilinearPolynomial(n, d, coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


@pytest.fixture
def no_unitary_draws(monkeypatch):
    """Fail the test if the simulator draws a Haar unitary."""

    def no_draw(rng, dim):
        pytest.fail(f"drew a {dim}x{dim} unitary before the size guards ran")

    monkeypatch.setattr(qsim, "_haar_unitary", no_draw)
