"""State-vector simulation of d-query quantum algorithms with a controlled phase oracle.

The register has dimension (n+1)*w: a query branch in [n+1] tensored with a
w-dimensional workspace.  The oracle multiplies branch i by x(i) for i in [n]
and leaves the (n+1)-th branch untouched, which is the controlled-query
convention behind the frozen variable.  The output on x is the expectation
of a Hermitian observable with spectrum in [-1, 1] after
U_d O_x ... U_1 O_x U_0 |0>, a multilinear polynomial of degree at most 2d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ModelViolationError
from .poly import Polynomial, fourier_transform

UNITARITY_TOL = 1e-10
SPECTRUM_TOL = 1e-10
IMAG_TOL = 1e-10
DEGREE_COEFF_TOL = 1e-9
MAX_STATE_DIM = 4096
MAX_UNITARY_ENTRIES = 2**26  # entries of the d+2 drawn dim x dim matrices, 1 GiB as complex128
MAX_EXTRACT_VARS = 14
MAX_STATE_APPLICATIONS = 2**18  # unitaries applied to a state over all 2^n points of an extraction


def _state_dim(n: int, d: int, w: int) -> int:
    # (n+1)*w once the sizes pass, before any unitary of that dimension is drawn or checked
    if n < 1 or d < 0 or w < 1:
        raise ValueError("need n >= 1, d >= 0, w >= 1")
    dim = (n + 1) * w
    if dim > MAX_STATE_DIM:
        raise CapacityError(f"state dimension {dim} exceeds {MAX_STATE_DIM}")
    entries = (d + 2) * dim * dim
    if entries > MAX_UNITARY_ENTRIES:
        raise CapacityError(
            f"{d + 2} matrices of dimension {dim} hold {entries} entries, above {MAX_UNITARY_ENTRIES}"
        )
    return dim


def _check_extractable(n: int, d: int) -> None:
    if n > MAX_EXTRACT_VARS:
        raise CapacityError(f"n={n} exceeds the interpolation guard ({MAX_EXTRACT_VARS})")
    applications = (d + 1) * 2**n
    if applications > MAX_STATE_APPLICATIONS:
        raise CapacityError(
            f"{d + 1} unitaries at each of 2^{n} points make {applications} state applications, "
            f"above {MAX_STATE_APPLICATIONS}"
        )


@dataclass(frozen=True)
class QueryAlgorithm:
    n: int
    d: int
    w: int
    unitaries: tuple[np.ndarray, ...]
    observable: np.ndarray

    def __post_init__(self) -> None:
        dim = _state_dim(self.n, self.d, self.w)
        if len(self.unitaries) != self.d + 1:
            raise ValueError(f"expected {self.d + 1} unitaries, got {len(self.unitaries)}")
        eye = np.eye(dim)
        for t, mat in enumerate(self.unitaries):
            if mat.shape != (dim, dim):
                raise ValueError(f"unitary {t} has shape {mat.shape}, expected {(dim, dim)}")
            if np.max(np.abs(mat.conj().T @ mat - eye)) > UNITARITY_TOL:
                raise ValueError(f"matrix {t} is not unitary within {UNITARITY_TOL}")
        m = self.observable
        if m.shape != (dim, dim):
            raise ValueError("observable dimension mismatch")
        if np.max(np.abs(m - m.conj().T)) > SPECTRUM_TOL:
            raise ValueError("observable is not Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -1.0 - SPECTRUM_TOL or eigs[-1] > 1.0 + SPECTRUM_TOL:
            raise ValueError("observable spectrum must lie in [-1, 1]")

    @property
    def dim(self) -> int:
        return (self.n + 1) * self.w


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases[phases == 0] = 1.0
    return q * (phases / np.abs(phases)).conj()


def random_algorithm(n: int, d: int, w: int, seed: int) -> QueryAlgorithm:
    """Seeded algorithm with Haar-style unitaries and a random +-1-spectrum observable."""
    dim = _state_dim(n, d, w)
    rng = np.random.default_rng(seed)
    unitaries = tuple(_haar_unitary(rng, dim) for _ in range(d + 1))
    basis = _haar_unitary(rng, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    observable = (basis * signs) @ basis.conj().T
    observable = 0.5 * (observable + observable.conj().T)
    return QueryAlgorithm(n=n, d=d, w=w, unitaries=unitaries, observable=observable)


def run(alg: QueryAlgorithm, x: Sequence[int]) -> float:
    """Expectation of the observable on input x."""
    if len(x) != alg.n:
        raise ValueError(f"input has length {len(x)}, expected {alg.n}")
    sx = [float(v) for v in x]
    if any(v not in (-1.0, 1.0) for v in sx):
        raise ValueError("input entries must be -1 or +1")
    phases = np.repeat(np.array(sx + [1.0]), alg.w)
    state = np.zeros(alg.dim, dtype=complex)
    state[0] = 1.0
    state = alg.unitaries[0] @ state
    for t in range(1, alg.d + 1):
        state = alg.unitaries[t] @ (phases * state)
    value = np.vdot(state, alg.observable @ state)
    if abs(value.imag) > IMAG_TOL:
        raise ModelViolationError(f"expectation has imaginary part {value.imag:.2e}")
    return float(value.real)


def extract_polynomial(alg: QueryAlgorithm) -> Polynomial:
    """Interpolate the output over all of {-1,1}^n; must have degree <= 2d.

    Coefficients beyond degree 2d above DEGREE_COEFF_TOL indicate a broken
    model and raise; below it they are hard-zeroed.
    """
    _check_extractable(alg.n, alg.d)
    values = {
        x: run(alg, x) for x in itertools.product((1, -1), repeat=alg.n)
    }
    p = fourier_transform(values, alg.n)
    bound = 2 * alg.d
    kept = {}
    for s, c in p.coeffs.items():
        if len(s) > bound:
            if abs(c) > DEGREE_COEFF_TOL:
                raise ModelViolationError(
                    f"coefficient {c:.3e} on {s} violates the degree-{bound} bound"
                )
        else:
            kept[s] = c
    return Polynomial(alg.n, kept)


def check_characterization(alg: QueryAlgorithm) -> dict:
    """Extract the output polynomial and test degree <= 2d plus the certified lower end of fcb <= 1."""
    from .sdp import fcb_norm

    p = extract_polynomial(alg)
    value = fcb_norm(p, 2 * alg.d)
    return {
        "degree_ok": p.degree <= 2 * alg.d,
        "fcb_value": value,
        "fcb_ok": bool(value <= 1.0),
    }


def parity_algorithm() -> QueryAlgorithm:
    """Hand-built single-query circuit whose output is exactly x(1)*x(2).

    A balanced superposition over the two query branches picks up the phases
    x(1), x(2); interfering them maps the parity onto the first basis state,
    where the observable reads it out.
    """
    h = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0],
            [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    observable = np.diag([1.0, -1.0, 1.0]).astype(complex)
    return QueryAlgorithm(n=2, d=1, w=1, unitaries=(h, h), observable=observable)
