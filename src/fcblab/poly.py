"""Sparse multilinear polynomials on the hypercube and block-multilinear forms.

A polynomial p: {-1,1}^n -> R is stored by its Fourier coefficients, a map
from subsets of {1,..,n} (sorted tuples of 1-based indices) to floats:

    p(x) = sum_S p_hat(S) * prod_{i in S} x(i).

Block-multilinear polynomials live on d blocks of n variables each, with at
most one variable per block in every monomial; keys are tuples of
(block, index) pairs sorted by block.

All arithmetic is 64-bit floating point.  Degrees are assumed small and the
coefficient maps sparse; dense 2^n sweeps (interpolation, sup norm) are
guarded by ``MAX_DENSE_VARS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError

Subset = tuple[int, ...]
BmlKey = tuple[tuple[int, int], ...]

MAX_DENSE_VARS = 20


def _canonical_subset(key: Iterable[int], n: int) -> Subset:
    s = tuple(sorted(_integer(i, "a subset entry") for i in key))
    for a, b in zip(s, s[1:]):
        if a == b:
            raise ValueError(f"coefficient key {s} has a repeated variable")
    if s and not (1 <= s[0] and s[-1] <= n):
        raise ValueError(f"coefficient key {s} out of range for n={n}")
    return s


def _finite(val, key) -> float:
    v = float(val)
    if not np.isfinite(v):
        raise ValueError(f"coefficient of {key} is not finite: {v}")
    return v


def _integer(value, name: str) -> int:
    """A size or index argument as an int; bools and floats (even 2.0) are refused, NumPy integers taken."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sign_vector(x: Sequence[float], n: int) -> tuple[float, ...]:
    if len(x) != n:
        raise ValueError(f"point has length {len(x)}, expected {n}")
    sx = tuple(float(v) for v in x)
    if any(v not in (-1.0, 1.0) for v in sx):
        raise ValueError("point entries must be -1 or +1")
    return sx


@dataclass(frozen=True)
class Polynomial:
    """Real multilinear polynomial on {-1,1}^n keyed by Fourier subsets.

    The empty map is the zero polynomial; exact-zero coefficients are
    dropped on construction so equality of instances is equality of the
    nonzero spectra.  ``n = 0`` denotes a constant (the hypercube with a
    single point), which arises naturally from repeated restrictions.
    """

    n: int
    coeffs: dict[Subset, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        clean: dict[Subset, float] = {}
        for key, val in self.coeffs.items():
            s = _canonical_subset(key, self.n)
            if s in clean:
                raise ValueError(f"duplicate coefficient key {s}")
            v = _finite(val, s)
            if v != 0.0:
                clean[s] = v
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, n: int, coeffs: dict[Subset, float]) -> Polynomial:
        """A polynomial from canonical keys and finite nonzero floats, taken as they are."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @property
    def degree(self) -> int:
        return max((len(s) for s in self.coeffs), default=0)

    def is_homogeneous(self) -> bool:
        return len({len(s) for s in self.coeffs}) <= 1

    @property
    def constant_term(self) -> float:
        return self.coeffs.get((), 0.0)


@dataclass(frozen=True)
class Statistics:
    """Fourier-analytic summary of a polynomial.

    variance = sum of squared coefficients over nonempty subsets,
    influences[i-1] = sum of squared coefficients over subsets containing i.
    Ties in the argmax are broken toward the smallest variable index.
    """

    variance: float
    influences: tuple[float, ...]
    max_influence: float
    argmax_variable: int


@dataclass(frozen=True)
class BlockMultilinearPolynomial:
    """Polynomial on ({-1,1}^n)^d with at most one variable per block."""

    n: int
    d: int
    coeffs: dict[BmlKey, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        clean: dict[BmlKey, float] = {}
        for key, val in self.coeffs.items():
            pairs = tuple(sorted((_integer(b, "a block"), _integer(i, "an index")) for b, i in key))
            blocks = [b for b, _ in pairs]
            if any(x == y for x, y in zip(blocks, blocks[1:])):
                raise ValueError(f"key {pairs} uses a block twice")
            for b, i in pairs:
                if not (1 <= b <= self.d):
                    raise ValueError(f"block {b} out of range for d={self.d}")
                if not (1 <= i <= self.n):
                    raise ValueError(f"index {i} out of range for n={self.n}")
            if pairs in clean:
                raise ValueError(f"duplicate coefficient key {pairs}")
            v = _finite(val, pairs)
            if v != 0.0:
                clean[pairs] = v
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.coeffs), default=0)

    def is_homogeneous(self) -> bool:
        return len({len(k) for k in self.coeffs}) <= 1


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform; length must be a power of two."""
    a = np.array(values, dtype=float)
    size = a.size
    h = 1
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(size)
        h *= 2
    return a


def _point_mask(x: Sequence[float]) -> int:
    # bit j set  <=>  x(j+1) == -1
    mask = 0
    for j, v in enumerate(x):
        if v == -1:
            mask |= 1 << j
        elif v != 1:
            raise ValueError("point entries must be -1 or +1")
    return mask


def _mask_subset(mask: int, n: int) -> Subset:
    return tuple(j + 1 for j in range(n) if mask & (1 << j))


def fourier_transform(values: Mapping[Sequence[int], float], n: int | None = None) -> Polynomial:
    """Interpolate a full evaluation table {-1,1}^n -> R into coefficients.

    ``values`` must cover every point of the hypercube exactly once; the
    result is the unique multilinear interpolant with
    p_hat(S) = 2^-n sum_x values(x) prod_{i in S} x(i).
    """
    if n is None:
        try:
            first = next(iter(values))
        except StopIteration:
            raise ValueError("incomplete evaluation table: no points at all") from None
        n = len(first)
    if n > MAX_DENSE_VARS:
        raise CapacityError(f"n={n} exceeds the dense-transform guard ({MAX_DENSE_VARS})")
    size = 1 << n
    table = np.zeros(size)
    seen = np.zeros(size, dtype=bool)
    for x, val in values.items():
        if len(x) != n:
            raise ValueError(f"point {tuple(x)} has length {len(x)}, expected {n}")
        mask = _point_mask(x)
        seen[mask] = True
        table[mask] = float(val)
    if not seen.all():
        missing = int(size - seen.sum())
        raise ValueError(f"incomplete evaluation table: {missing} of {size} points missing")
    return _dense_polynomial(_fwht(table) / size, n)


def _subset_table(first: int, count: int) -> list[Subset]:
    """table[k] = the subset of {first, .., first+count-1} whose bit j in k marks first+j."""
    table: list[Subset] = [()]
    for i in range(first, first + count):
        table += [t + (i,) for t in table]
    return table


def _dense_polynomial(coeff: np.ndarray, n: int) -> Polynomial:
    """The polynomial whose coefficient on the subset of mask k is coeff[k]; zeros are dropped.

    The keys come in mask order, as from ``Polynomial(n, {_mask_subset(k, n):
    float(coeff[k])})``, and a non-finite coefficient raises the same
    ValueError, naming the first such mask.  Only the nonzero masks get a key:
    the key of mask k joins the subset of its low n//2 bits to that of the
    rest, from two tables of 2^(n//2) and 2^(n - n//2) subsets.
    """
    half = n // 2
    low, high = _subset_table(1, half), _subset_table(half + 1, n - half)
    masks = np.flatnonzero(coeff)
    values = coeff[masks]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(masks[bad[0]])
        raise ValueError(f"coefficient of {_mask_subset(k, n)} is not finite: {float(coeff[k])}")
    lowmask = (1 << half) - 1
    keys = [low[k & lowmask] + high[k >> half] for k in masks.tolist()]
    return Polynomial._trusted(n, dict(zip(keys, values.tolist())))


def evaluate(p: Polynomial, x: Sequence[int]) -> float:
    """Evaluate p at a sign vector of length p.n."""
    sx = _sign_vector(x, p.n)
    total = 0.0
    for s, c in p.coeffs.items():
        prod = c
        for i in s:
            prod *= sx[i - 1]
        total += prod
    return total


def statistics(p: Polynomial) -> Statistics:
    inf = [0.0] * p.n
    variance = 0.0
    for s, c in p.coeffs.items():
        if not s:
            continue
        c2 = c * c
        variance += c2
        for i in s:
            inf[i - 1] += c2
    if p.n == 0:
        return Statistics(variance=0.0, influences=(), max_influence=0.0, argmax_variable=0)
    max_inf = max(inf)
    argmax = inf.index(max_inf) + 1
    return Statistics(
        variance=variance,
        influences=tuple(inf),
        max_influence=max_inf,
        argmax_variable=argmax,
    )


def sup_norm_bruteforce(p: Polynomial) -> float:
    """Max of |p(x)| over all 2^n sign vectors, via a dense transform."""
    if p.n > MAX_DENSE_VARS:
        raise CapacityError(f"n={p.n} exceeds the dense-sweep guard ({MAX_DENSE_VARS})")
    size = 1 << p.n
    dense = np.zeros(size)
    for s, c in p.coeffs.items():
        mask = 0
        for i in s:
            mask |= 1 << (i - 1)
        dense[mask] = c
    vals = _fwht(dense)
    return float(np.max(np.abs(vals))) if size else 0.0


def restrict(p: Polynomial, i: int, y: int) -> Polynomial:
    """Fix variable i to the sign y, reindexing variables above i down by one.

    The restricted coefficients satisfy q_hat(S) = p_hat(S) + y*p_hat(S+{i}).
    """
    if not (1 <= _integer(i, "i") <= p.n):
        raise IndexError(f"variable {i} out of range for n={p.n}")
    ys = float(y)
    if ys not in (-1.0, 1.0):
        raise ValueError("restriction value must be -1 or +1")
    out: dict[Subset, float] = {}
    for s, c in p.coeffs.items():
        if i in s:
            t = tuple(j if j < i else j - 1 for j in s if j != i)
            out[t] = out.get(t, 0.0) + ys * c
        else:
            t = tuple(j if j < i else j - 1 for j in s)
            out[t] = out.get(t, 0.0) + c
    return Polynomial(p.n - 1, out)


def degree_part(p, s: int):
    """Keep exactly the coefficients of degree s (works for both polynomial types)."""
    if _integer(s, "s") < 0:
        raise ValueError("degree part index must be nonnegative")
    if isinstance(p, Polynomial):
        return Polynomial(p.n, {k: v for k, v in p.coeffs.items() if len(k) == s})
    if isinstance(p, BlockMultilinearPolynomial):
        return BlockMultilinearPolynomial(
            p.n, p.d, {k: v for k, v in p.coeffs.items() if len(k) == s}
        )
    raise TypeError(f"unsupported polynomial type {type(p).__name__}")


def spectral_l1(p: Polynomial) -> float:
    return sum(abs(c) for c in p.coeffs.values())


def _greedy_walk(p: Polynomial, y: Sequence[int], budget: int) -> tuple[Polynomial, list[int]]:
    """Query y at the most influential variable ``budget`` times, restricting each time.

    Each step queries the highest-influence variable of the current
    restriction (ties toward the smallest index) and stops early when the
    remaining variance is zero.  Returns the final restriction and the
    queried indices, numbered as in the original polynomial.
    """
    sy = _sign_vector(y, p.n)
    if not (0 <= _integer(budget, "budget") <= p.n):
        raise ValueError(f"budget must lie in [0, {p.n}]")
    current = p
    remaining = list(range(1, p.n + 1))
    queried: list[int] = []
    for _ in range(budget):
        st = statistics(current)
        if st.variance == 0.0:
            break
        j = st.argmax_variable
        orig = remaining[j - 1]
        current = restrict(current, j, int(sy[orig - 1]))
        remaining.pop(j - 1)
        queried.append(orig)
    return current, queried


def greedy_simulate(p: Polynomial, y: Sequence[int], budget: int) -> tuple[float, list[int]]:
    """Estimate p(y) as the constant term after the greedy walk; also return the queried indices."""
    current, queried = _greedy_walk(p, y, budget)
    return current.constant_term, queried


def bml_variance(p: BlockMultilinearPolynomial) -> float:
    return sum(c * c for k, c in p.coeffs.items() if k)


def bml_influences(p: BlockMultilinearPolynomial) -> np.ndarray:
    """Influence of each (block, index) variable, as a (d, n) array."""
    inf = np.zeros((p.d, p.n))
    for k, c in p.coeffs.items():
        for b, i in k:
            inf[b - 1, i - 1] += c * c
    return inf
